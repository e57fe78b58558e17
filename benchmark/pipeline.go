package main

import (
	"fmt"
	"net/netip"
	"time"

	"xorp/internal/bgp"
	"xorp/internal/eventloop"
	"xorp/internal/fwd"
	"xorp/internal/rib"
	"xorp/internal/route"
	"xorp/internal/rtrmgr"
)

// pipeline is the full router of the bulk and trickle workloads: BGP
// peer-in → decision → intra-hub XRL → RIB stage network → XRL → FEA →
// fwd snapshot, assembled by rtrmgr on one shared loop with a simulated
// clock and driven from the benchmark goroutine, so no scheduler, sleep
// or poll is inside a timed section.
type pipeline struct {
	r     *rtrmgr.Router
	feed  *feed
	table int // routes the snapshot holds between transactions
	fails int
}

func assemblePipeline(cfg *config, d *digest) (*pipeline, error) {
	f := generateFeed(cfg.seed, cfg.sizes.tableRoutes, cfg.sizes.attrSets, d)
	if cfg.corruptExpected {
		f.nexthop[0] = (f.nexthop[0] + 1) % uint8(len(gateways))
	}
	r, err := rtrmgr.NewRouter(routerConfig, rtrmgr.Options{
		Clock:      eventloop.NewSimClock(time.Unix(0, 0)),
		SharedLoop: true,
	})
	if err != nil {
		return nil, err
	}
	if err := r.Start(); err != nil {
		return nil, err
	}
	r.SettleAll()
	p := &pipeline{r: r, feed: f, table: baseRoutes + len(f.prefixes)}
	for i, b := range f.announce {
		p.inject("feed", b, nil)
		if i%(sliceRoutes/feedNLRI) == sliceRoutes/feedNLRI-1 {
			r.SettleAll()
		}
	}
	r.SettleAll()
	if got := p.snapshot().Len(); got != p.table || p.fails > 0 {
		return nil, fmt.Errorf("preload: snapshot holds %d routes, want %d (%d injects failed)", got, p.table, p.fails)
	}
	return p, nil
}

func (p *pipeline) snapshot() *fwd.Snapshot { return p.r.FEA.Snapshots().Current() }

// inject decodes one wire UPDATE and hands it to the named peering on the
// BGP loop, as the peer's session reader would.
func (p *pipeline) inject(peer string, wire []byte, rec *recorder) {
	sp := rec.begin(spanDecode)
	m, err := bgp.DecodeMessage(wire)
	rec.end(sp)
	if err != nil || m.Update == nil {
		p.fails++
		return
	}
	p.r.BGP.Loop().Dispatch(func() {
		sp := rec.begin(spanBGPInject)
		if err := p.r.BGP.InjectUpdate(peer, m.Update); err != nil {
			p.fails++
		}
		rec.end(sp)
	})
}

func (p *pipeline) settle(rec *recorder) {
	sp := rec.begin(spanDrain)
	p.r.SettleAll()
	rec.end(sp)
}

// expect checks one prefix of the current snapshot: absent when gw is the
// zero Addr, otherwise installed with that gateway.
func (p *pipeline) expect(s *fwd.Snapshot, net netip.Prefix, gw netip.Addr) {
	e, ok := s.Get(net)
	if ok != gw.IsValid() || (ok && e.NextHop != gw) {
		p.fails++
	}
}

func (p *pipeline) expectLen(s *fwd.Snapshot, want int) {
	if s.Len() != want {
		p.fails++
	}
}

func (p *pipeline) failures() int       { return p.fails }
func (p *pipeline) snapshotGen() uint64 { return p.snapshot().Gen() }
func (p *pipeline) close()              { p.r.Stop() }

func (p *pipeline) trace(rec *recorder) {
	p.r.FEA.SetBackend(tracedBackend{Backend: p.r.FEA.Backend(), rec: rec})
}

// tracedBackend records a span around every call the FEA makes into its
// forwarding backend; it is installed on traced passes only.
type tracedBackend struct {
	fwd.Backend
	rec *recorder
}

func (b tracedBackend) Apply(batch *rib.FIBBatch) error {
	sp := b.rec.begin(spanFwdApply)
	err := b.Backend.Apply(batch)
	b.rec.end(sp)
	return err
}

func (b tracedBackend) ApplyEntry(e route.Entry) error {
	sp := b.rec.begin(spanFwdApply)
	err := b.Backend.ApplyEntry(e)
	b.rec.end(sp)
	return err
}

func (b tracedBackend) RemoveEntry(net netip.Prefix) bool {
	sp := b.rec.begin(spanFwdApply)
	ok := b.Backend.RemoveEntry(net)
	b.rec.end(sp)
	return ok
}

// bulk: a transaction withdraws one sliceRoutes-sized slice of the
// preloaded table through peer "feed", settles, announces it again with
// the UPDATEs that first loaded it, and settles.
type bulk struct{ *pipeline }

func setupBulk(cfg *config, d *digest) (instance, error) {
	p, err := assemblePipeline(cfg, d)
	if err != nil {
		return nil, err
	}
	if p.feed.slices() == 0 {
		return nil, fmt.Errorf("table of %d routes has no %d-route slice", len(p.feed.prefixes), sliceRoutes)
	}
	return bulk{p}, nil
}

func (b bulk) opsPerTxn() int { return 2 * sliceRoutes }

func (b bulk) txn(i int, rec *recorder) (time.Duration, time.Duration) {
	k := i % b.feed.slices()
	lo := k * sliceRoutes
	root := rec.beginTxn(i)

	t0 := time.Now()
	b.inject("feed", b.feed.withdraw[k], rec)
	b.settle(rec)
	timed := time.Since(t0)

	sp := rec.begin(spanCheck)
	s := b.snapshot()
	b.expectLen(s, b.table-sliceRoutes)
	for _, net := range b.feed.prefixes[lo : lo+sliceRoutes] {
		b.expect(s, net, netip.Addr{})
	}
	rec.end(sp)

	t0 = time.Now()
	for u := lo / feedNLRI; u < (lo+sliceRoutes)/feedNLRI; u++ {
		b.inject("feed", b.feed.announce[u], rec)
	}
	b.settle(rec)
	timed += time.Since(t0)

	sp = rec.begin(spanCheck)
	s = b.snapshot()
	b.expectLen(s, b.table)
	for j, net := range b.feed.prefixes[lo : lo+sliceRoutes] {
		b.expect(s, net, gateways[b.feed.nexthop[lo+j]])
	}
	rec.end(sp)
	rec.end(root)
	return timed, timed
}

// trickle: a transaction announces one absent prefix through peer "test",
// replaces it with another next hop, and withdraws it, settling after
// each single-route update.
type trickle struct {
	*pipeline
	in *trickleInput
}

func setupTrickle(cfg *config, d *digest) (instance, error) {
	p, err := assemblePipeline(cfg, d)
	if err != nil {
		return nil, err
	}
	in := generateTrickle(cfg.seed, cfg.sizes.tricklePool, d)
	if cfg.corruptExpected {
		in.first[0] = in.second[0]
	}
	return trickle{p, in}, nil
}

func (t trickle) opsPerTxn() int { return 3 }

func (t trickle) txn(i int, rec *recorder) (time.Duration, time.Duration) {
	k := i % len(t.in.prefixes)
	net := t.in.prefixes[k]
	root := rec.beginTxn(i)
	var timed time.Duration
	step := func(wire []byte, wantLen int, gw netip.Addr) {
		t0 := time.Now()
		t.inject("test", wire, rec)
		t.settle(rec)
		timed += time.Since(t0)
		sp := rec.begin(spanCheck)
		s := t.snapshot()
		t.expectLen(s, wantLen)
		t.expect(s, net, gw)
		rec.end(sp)
	}
	step(t.in.announce[k], t.table+1, gateways[t.in.first[k]])
	step(t.in.replace[k], t.table+1, gateways[t.in.second[k]])
	step(t.in.withdraw[k], t.table, netip.Addr{})
	rec.end(root)
	return timed, timed
}
