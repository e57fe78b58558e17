package main

import (
	"fmt"
	"net/netip"
	"time"

	"xorp/internal/eventloop"
	"xorp/internal/fea"
	"xorp/internal/fwd"
	"xorp/internal/kernel"
	"xorp/internal/rib"
	"xorp/internal/route"
)

// ribAssembly is a RIB on one loop driven from the caller, holding the
// connected route and the static covers the feeds' next hops resolve
// through.
type ribAssembly struct {
	loop *eventloop.Loop
	rib  *rib.Process
}

func newRIB(loop *eventloop.Loop, client rib.FIBClient) *ribAssembly {
	a := &ribAssembly{loop: loop, rib: rib.NewProcess(loop, client, nil)}
	a.run(func() {
		// AddRoute fails only for a protocol without an origin table;
		// connected and static always have one.
		_ = a.rib.AddRoute(route.ProtoConnected, route.Entry{Net: netip.MustParsePrefix("192.168.1.0/24"), IfName: "eth0"})
		for i, nh := range bgpNexthops {
			cover, _ := nh.Prefix(16) // 16 bits of an IPv4 address: cannot fail
			_ = a.rib.AddRoute(route.ProtoStatic, route.Entry{Net: cover, NextHop: gateways[i]})
		}
	})
	return a
}

// run executes fn on the loop and drains it.
func (a *ribAssembly) run(fn func()) {
	a.loop.Dispatch(fn)
	a.loop.RunPending()
}

// loadRoutes adds es as EBGP routes in slices of sliceRoutes.
func (a *ribAssembly) loadRoutes(es []route.Entry) error {
	var err error
	a.run(func() {
		for off := 0; off < len(es) && err == nil; off += sliceRoutes {
			err = a.rib.AddRoutes(route.ProtoEBGP, es[off:min(off+sliceRoutes, len(es))])
		}
	})
	return err
}

// ribFEA is a RIB wired straight to an FEA (fea.RIBClient, no XRLs): the
// assembly of the forward workload.
type ribFEA struct {
	*ribAssembly
	fib *kernel.FIB
	fea *fea.Process
}

func newRIBFEA() *ribFEA {
	loop, fib := eventloop.New(nil), kernel.NewFIB()
	fib.AddInterface("eth0", netip.MustParsePrefix("192.168.1.1/24"), 1500)
	proc := fea.New(loop, fib, nil, nil)
	return &ribFEA{ribAssembly: newRIB(loop, fea.RIBClient{P: proc}), fib: fib, fea: proc}
}

// load preloads es and checks the published snapshot holds them all.
func (a *ribFEA) load(es []route.Entry) error {
	err := a.loadRoutes(es)
	if got, want := a.fea.Snapshots().Current().Len(), baseRoutes+len(es); err == nil && got != want {
		err = fmt.Errorf("snapshot holds %d routes, want %d", got, want)
	}
	return err
}

// forward: reads beside writes on one goroutine. A transaction deletes
// and re-adds a rotating slice through the RIB's batch calls, then looks
// lookupBurst addresses up in the snapshot that write published.
type forward struct {
	*ribFEA
	entries []route.Entry
	nets    []netip.Prefix
	stream  *stream
	hits    []int // expected hits per lookup window
	fails   int
}

func setupForward(cfg *config, d *digest) (instance, error) {
	f := generateFeed(cfg.seed, cfg.sizes.tableRoutes, cfg.sizes.attrSets, d)
	if f.slices() == 0 {
		return nil, fmt.Errorf("table of %d routes has no %d-route slice", len(f.prefixes), sliceRoutes)
	}
	w := &forward{ribFEA: newRIBFEA(), entries: f.entries(), nets: f.prefixes}
	w.stream = generateStream(cfg.seed, f.prefixes, cfg.sizes.streamLen, d)
	for lo := 0; lo+lookupBurst <= len(w.stream.addrs); lo += lookupBurst {
		n := 0
		for _, miss := range w.stream.miss[lo : lo+lookupBurst] {
			if !miss {
				n++
			}
		}
		w.hits = append(w.hits, n)
	}
	if len(w.hits) == 0 {
		return nil, fmt.Errorf("address stream of %d is shorter than one burst of %d", len(w.stream.addrs), lookupBurst)
	}
	if err := w.load(w.entries); err != nil {
		return nil, fmt.Errorf("preload: %v", err)
	}
	return w, nil
}

func (w *forward) opsPerTxn() int { return lookupBurst }

// forwardSamples lookups per txn are compared against the kernel FIB.
const forwardSamples = 64

func (w *forward) txn(i int, rec *recorder) (time.Duration, time.Duration) {
	lo := (i % (len(w.entries) / sliceRoutes)) * sliceRoutes
	win := i % len(w.hits)
	addrs := w.stream.addrs[win*lookupBurst : (win+1)*lookupBurst]
	root := rec.beginTxn(i)

	t0 := time.Now()
	var err error
	w.loop.Dispatch(func() {
		sp := rec.begin(spanRIBBatch)
		if err = w.rib.DeleteRoutes(route.ProtoEBGP, w.nets[lo:lo+sliceRoutes]); err == nil {
			err = w.rib.AddRoutes(route.ProtoEBGP, w.entries[lo:lo+sliceRoutes])
		}
		rec.end(sp)
	})
	sp := rec.begin(spanDrain)
	w.loop.RunPending()
	rec.end(sp)

	sp = rec.begin(spanLookup)
	t1 := time.Now()
	snap := w.fea.Snapshots().Current()
	hits := 0
	for _, a := range addrs {
		if _, ok := snap.Lookup(a); ok {
			hits++
		}
	}
	t2 := time.Now()
	rec.end(sp)

	sp = rec.begin(spanCheck)
	if err != nil {
		w.fails += sliceRoutes
	}
	if d := hits - w.hits[win]; d != 0 {
		w.fails += max(d, -d)
	}
	for s := 0; s < forwardSamples; s++ {
		a := addrs[s*(lookupBurst/forwardSamples)]
		got, ok := snap.Lookup(a)
		want, wantOK := w.fib.Lookup(a)
		if ok != wantOK || got.Net != want.Net || got.NextHop != want.NextHop {
			w.fails++
		}
	}
	rec.end(sp)
	rec.end(root)
	return t2.Sub(t0), t2.Sub(t1)
}

func (w *forward) failures() int       { return w.fails }
func (w *forward) snapshotGen() uint64 { return w.fea.Snapshots().Current().Gen() }
func (w *forward) close()              {}

func (w *forward) trace(rec *recorder) {
	w.fea.SetBackend(tracedBackend{Backend: w.fea.Backend(), rec: rec})
}

var _ fwd.Backend = tracedBackend{}
