package main

import (
	"fmt"
	"io"
	"net/netip"
	"runtime"
	"time"

	"xorp/internal/bgp"
	"xorp/internal/eventloop"
	"xorp/internal/fea"
	"xorp/internal/finder"
	"xorp/internal/fwd"
	"xorp/internal/kernel"
	"xorp/internal/profiler"
	"xorp/internal/rib"
	"xorp/internal/route"
	"xorp/internal/rtrmgr"
	"xorp/internal/telemetry"
	"xorp/internal/trie"
	"xorp/internal/xif"
	"xorp/internal/xipc"
	"xorp/internal/xrl"
)

// The traced run: the workload repeated with spans, then one isolated
// driver per layer over inputs generated from the same seed. Layers are
// named after the internal/ packages. Every per-layer metric is printed
// on every workload; the ones taken from the workload's own passes
// (span.*, runtime.*, tail.*, trace.*, fwd.snapshots_per_txn) read 0
// where the workload does not reach that code.

// perLayerUnits is the program's copy of BENCHMARK.json's per_layer list.
var perLayerUnits = map[string]string{
	"trie.upsert_ns": "ns", "trie.delete_ns": "ns", "trie.lpm_ns": "ns",
	"trie.persistent_insert_ns": "ns", "trie.persistent_insert_allocs": "count",
	"trie.persistent_delete_ns": "ns", "trie.persistent_lpm_ns": "ns",

	"fwd.apply_ns_per_route": "ns", "fwd.apply_allocs_per_route": "count",
	"fwd.publish_ns_per_batch": "ns", "fwd.lookup_ns": "ns",
	"fwd.pool_lookups_per_s": "1/s", "fwd.snapshots_per_txn": "count",

	"kernel.apply_ns_per_route": "ns", "fea.apply_ns_per_route": "ns", "fea.self_ns_per_route": "ns",

	"rib.add_ns_per_route": "ns", "rib.delete_ns_per_route": "ns", "rib.add_allocs_per_route": "count",
	"rib.single_add_ns": "ns", "rib.single_delete_ns": "ns",

	"xif.route_encode_ns": "ns", "xif.route_decode_ns": "ns",

	"bgp.decode_ns_per_route": "ns", "bgp.encode_ns_per_route": "ns", "bgp.intern_ns": "ns",
	"bgp.pipeline_ns_per_route": "ns", "bgp.pipeline_allocs_per_route": "count",
	"bgp.single_update_ns": "ns", "bgp.group_encodes_per_route": "count",
	"bgp.bytes_per_member_route": "bytes",

	"xrl.encode_ns_0args": "ns", "xrl.encode_ns_4args": "ns", "xrl.encode_ns_16args": "ns",
	"xrl.decode_ns_0args": "ns", "xrl.decode_ns_4args": "ns", "xrl.decode_ns_16args": "ns",
	"xrl.codec_allocs_per_roundtrip": "count",

	"xipc.intra_rtt_ns": "ns", "xipc.tcp_rtt_us": "us", "xipc.tcp_syscalls_per_xrl": "count",
	"finder.resolve_us": "us",

	"eventloop.dispatch_ns": "ns", "eventloop.wake_rtt_us": "us", "eventloop.timer_ns": "ns",

	"rtrmgr.start_ms": "ms",

	"profiler.disabled_point_ns": "ns", "telemetry.disabled_stamp_ns": "ns", "telemetry.scrape_us": "us",

	"span.bgp_inject_us_per_op": "us", "span.drain_us_per_op": "us",
	"span.fwd_apply_us_per_op": "us", "span.unattributed_share": "share",

	"runtime.gc_cycles_per_kop": "count", "runtime.gc_cpu_share": "share", "runtime.gc_wall_share": "share",
	"tail.txn_p90_us": "us", "tail.txn_p99_us": "us", "trace.overhead_share": "share",
}

// layerSet collects per-layer metrics, taking each unit from perLayerUnits.
type layerSet struct{ ms []metric }

func (l *layerSet) add(name string, v float64) {
	unit, ok := perLayerUnits[name]
	if !ok {
		panic("benchmark: per-layer metric " + name + " is not declared")
	}
	l.ms = append(l.ms, metric{name, v, unit})
}

// value returns a metric added earlier.
func (l *layerSet) value(name string) float64 {
	for _, m := range l.ms {
		if m.name == name {
			return m.value
		}
	}
	panic("benchmark: per-layer metric " + name + " read before it was measured")
}

// tracedResult is what the workload's own passes contribute to a traced run.
type tracedResult struct {
	ops       int
	wallPerOp float64 // untraced pass, µs
	metrics   []metric
}

// attributed are the spans whose self time belongs to a named layer; the
// rest of a transaction (draining the loops, the XRL hops, dispatch and
// glue) is what nothing outside the program can see.
var attributed = []uint8{spanDecode, spanBGPInject, spanRIBBatch, spanFwdApply, spanPeerIn, spanLookup}

// runTraced repeats a third of the timed section three times over the
// same transactions: with the collector left alone (what it costs when it
// overlaps the transactions, and the tail it causes), then as the
// end-to-end run does it, then with spans recorded at every boundary
// reachable from outside. The spans go to cfg.outDir.
func runTraced(cfg *config, inst instance, warm, segs, perSeg int, out io.Writer) (*tracedResult, error) {
	segs = max(2, segs/3)
	natural := runPass(inst, warm, segs, perSeg, nil, false)
	plain := runPass(inst, warm, segs, perSeg, nil, true)
	rec := newRecorder(1 << 16)
	inst.trace(rec)
	traced := runPass(inst, warm, segs, perSeg, rec, true)
	path, err := rec.write(cfg.outDir, cfg.workload)
	if err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(out, "spans %d written to %s\n", len(rec.spans), path)

	self := rec.selfTimes()
	var total, seen time.Duration
	for name, d := range self {
		if name != spanCheck {
			total += d
		}
	}
	for _, name := range attributed {
		seen += self[name]
	}
	ops := float64(traced.ops)
	perOp := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / ops }

	var l layerSet
	l.add("span.bgp_inject_us_per_op", perOp(self[spanBGPInject]))
	l.add("span.drain_us_per_op", perOp(self[spanDrain]))
	l.add("span.fwd_apply_us_per_op", perOp(self[spanFwdApply]))
	l.add("span.unattributed_share", 1-float64(seen)/float64(total))
	l.add("runtime.gc_cycles_per_kop", float64(natural.gcCycles)/(float64(natural.ops)/1e3))
	l.add("runtime.gc_cpu_share", natural.gcCPUShare)
	// Whole-pass means, not the quartile: the quieter segments of the
	// natural pass are exactly the ones no collection reached.
	l.add("runtime.gc_wall_share", 1-plain.wallTotal.Seconds()/natural.wallTotal.Seconds())
	l.add("tail.txn_p90_us", plain.p90)
	l.add("tail.txn_p99_us", percentile(natural.lat, 0.99))
	l.add("trace.overhead_share", traced.wallPerOp/plain.wallPerOp-1)
	l.add("fwd.snapshots_per_txn", float64(plain.snapshotGen)/float64(plain.txns))
	return &tracedResult{ops: natural.ops + plain.ops + traced.ops, wallPerOp: plain.wallPerOp, metrics: l.ms}, nil
}

// sink accumulates a by-product of measured calls so the compiler cannot
// drop them.
var sink int

// bench measures fn, which performs ops operations per call, rounds times
// over and returns the median ns per op and the allocations per op. Like
// the workloads' segments, every round starts from a collected heap so
// the concurrent collector stays out of it.
func bench(rounds, ops int, fn func()) (ns, allocs float64) {
	_, ns, allocs = bench2(rounds, ops, func() {}, fn)
	return ns, allocs
}

// bench2 is bench for a pair of phases timed apart (delete, then add
// back): each phase's median ns per op, and the allocations per op of the
// second.
func bench2(rounds, ops int, first, second func()) (ns1, ns2, allocs2 float64) {
	t1, t2 := make([]float64, rounds), make([]float64, rounds)
	var mallocs uint64
	var ms0, ms1 runtime.MemStats
	for r := 0; r < rounds; r++ {
		runtime.GC()
		t0 := time.Now()
		first()
		t1[r] = float64(time.Since(t0).Nanoseconds()) / float64(ops)
		runtime.ReadMemStats(&ms0)
		t0 = time.Now()
		second()
		t2[r] = float64(time.Since(t0).Nanoseconds()) / float64(ops)
		runtime.ReadMemStats(&ms1)
		mallocs += ms1.Mallocs - ms0.Mallocs
	}
	return median(t1), median(t2), float64(mallocs) / float64(rounds*ops)
}

// driverError carries an error out of a layer driver; layerMetrics turns
// it back into an error.
type driverError struct{ err error }

// must stops a layer driver on an error from one of its own calls: a
// driver that went wrong has measured nothing.
func must(err error) {
	if err != nil {
		panic(driverError{err})
	}
}

// mustXRL is must for the *xrl.Error the IPC layer returns (a nil one
// must not be boxed into a non-nil error).
func mustXRL(err *xrl.Error) {
	if err != nil {
		panic(driverError{err})
	}
}

// layerInputs are the generated inputs the isolated drivers share.
type layerInputs struct {
	cfg     *config
	feed    *feed
	entries []route.Entry
	stream  *stream
	trickle *trickleInput
	rounds  int
	sample  int // routes one trie/RIB round deletes and re-adds
	slices  int // sliceRoutes-sized batches one batch round applies
}

// layerMetrics runs every isolated layer driver.
func layerMetrics(cfg *config) (ms []metric, err error) {
	defer func() {
		if r := recover(); r != nil {
			de, ok := r.(driverError)
			if !ok {
				panic(r)
			}
			err = fmt.Errorf("layer driver: %w", de.err)
		}
	}()
	d := newDigest()
	in := &layerInputs{cfg: cfg, rounds: 3}
	in.feed = generateFeed(cfg.seed, cfg.sizes.tableRoutes, cfg.sizes.attrSets, d)
	in.entries = in.feed.entries()
	in.stream = generateStream(cfg.seed, in.feed.prefixes, cfg.sizes.streamLen, d)
	in.trickle = generateTrickle(cfg.seed, cfg.sizes.tricklePool, d)
	in.slices = min(32, in.feed.slices())
	in.sample = in.slices * sliceRoutes
	if cfg.quick {
		in.rounds = 2
	}
	var l layerSet
	for _, driver := range []func(*layerInputs, *layerSet){
		trieLayer, fwdLayer, kernelFEALayer, ribLayer, xifLayer, bgpLayer, routeServerLayer,
		xrlCodecLayer, intraLayer, tcpLayer, eventloopLayer, rtrmgrLayer, probeLayer,
	} {
		driver(in, &l)
	}
	return l.ms, nil
}

func trieLayer(in *layerInputs, l *layerSet) {
	es := in.entries
	t := trie.New[route.Entry]()
	for _, e := range es {
		t.Upsert(e.Net, e)
	}
	del, ups, _ := bench2(in.rounds, in.sample, func() {
		for _, e := range es[:in.sample] {
			t.Delete(e.Net)
		}
	}, func() {
		for _, e := range es[:in.sample] {
			t.Upsert(e.Net, e)
		}
	})
	lpm, _ := bench(in.rounds, len(in.stream.addrs), func() {
		for _, a := range in.stream.addrs {
			_, e, _ := t.LongestMatch(a)
			sink += len(e.IfName)
		}
	})
	l.add("trie.upsert_ns", ups)
	l.add("trie.delete_ns", del)
	l.add("trie.lpm_ns", lpm)

	p := trie.NewPersistent[route.Entry]()
	for _, e := range es {
		p = p.Insert(e.Net, e)
	}
	pdel, pins, pallocs := bench2(in.rounds, in.sample, func() {
		for _, e := range es[:in.sample] {
			p, _ = p.Delete(e.Net)
		}
	}, func() {
		for _, e := range es[:in.sample] {
			p = p.Insert(e.Net, e)
		}
	})
	plpm, _ := bench(in.rounds, len(in.stream.addrs), func() {
		for _, a := range in.stream.addrs {
			_, e, _ := p.LongestMatch(a)
			sink += len(e.IfName)
		}
	})
	l.add("trie.persistent_insert_ns", pins)
	l.add("trie.persistent_insert_allocs", pallocs)
	l.add("trie.persistent_delete_ns", pdel)
	l.add("trie.persistent_lpm_ns", plpm)
}

// sliceBatches builds, for each of the first n slices of es, the FIBBatch
// that deletes the slice and the one that adds it back.
func sliceBatches(es []route.Entry, n int) (dels, adds []*rib.FIBBatch) {
	for s := 0; s < n; s++ {
		del, add := rib.NewFIBBatch(), rib.NewFIBBatch()
		for _, e := range es[s*sliceRoutes : (s+1)*sliceRoutes] {
			del.Delete(e)
			add.Add(e)
		}
		dels, adds = append(dels, del), append(adds, add)
	}
	return dels, adds
}

// loadBatches applies es to apply in sliceRoutes-sized add batches.
func loadBatches(es []route.Entry, apply func(*rib.FIBBatch)) {
	b := rib.NewFIBBatch()
	for off := 0; off < len(es); off += sliceRoutes {
		b.Reset()
		for _, e := range es[off:min(off+sliceRoutes, len(es))] {
			b.Add(e)
		}
		apply(b)
	}
}

func fwdLayer(in *layerInputs, l *layerSet) {
	pub := fwd.NewPublisher()
	loadBatches(in.entries, func(b *rib.FIBBatch) { pub.Apply(b) })
	dels, adds := sliceBatches(in.entries, in.slices)
	del, add, allocs := bench2(in.rounds, in.sample, func() {
		for _, b := range dels {
			pub.Apply(b)
		}
	}, func() {
		for _, b := range adds {
			pub.Apply(b)
		}
	})
	l.add("fwd.apply_ns_per_route", (del+add)/2)
	l.add("fwd.apply_allocs_per_route", allocs)

	// A batch of one, as trickle causes it: a prefix of peer "test"
	// appears in the full table and disappears again.
	one, _ := bench(in.rounds, 2*len(in.trickle.prefixes), func() {
		for k, net := range in.trickle.prefixes {
			e := route.Entry{Net: net, NextHop: gateways[in.trickle.first[k]], IfName: "eth0"}
			pub.FIBAdd(e)
			pub.FIBDelete(e)
		}
	})
	l.add("fwd.publish_ns_per_batch", one)

	snap := pub.Current()
	lookup, _ := bench(in.rounds, len(in.stream.addrs), func() {
		for _, a := range in.stream.addrs {
			e, _ := snap.Lookup(a)
			sink += len(e.IfName)
		}
	})
	l.add("fwd.lookup_ns", lookup)

	ring, err := fwd.NewStream(fwd.StreamConfig{Prefixes: in.feed.prefixes, Dist: "zipf", MissRatio: missRatio, Seed: in.cfg.seed})
	must(err)
	window := 200 * time.Millisecond
	if in.cfg.quick {
		window = 20 * time.Millisecond
	}
	pool := fwd.NewPool(pub, ring, 1)
	t0 := time.Now()
	pool.Start()
	time.Sleep(window)
	pool.Stop() // waits for the worker
	l.add("fwd.pool_lookups_per_s", float64(pool.Counters().Lookups)/time.Since(t0).Seconds())
}

func kernelFEALayer(in *layerInputs, l *layerSet) {
	toKernel := func(es []route.Entry) (adds []kernel.FIBEntry, removes []netip.Prefix) {
		for _, e := range es {
			adds = append(adds, kernel.FIBEntry{Net: e.Net, NextHop: e.NextHop, IfName: e.IfName})
			removes = append(removes, e.Net)
		}
		return adds, removes
	}
	fib := kernel.NewFIB()
	all, _ := toKernel(in.entries)
	must(fib.ApplyBatch(all, nil))
	adds, removes := toKernel(in.entries[:in.sample])
	kdel, kadd, _ := bench2(in.rounds, in.sample, func() {
		for off := 0; off < in.sample; off += sliceRoutes {
			must(fib.ApplyBatch(nil, removes[off:off+sliceRoutes]))
		}
	}, func() {
		for off := 0; off < in.sample; off += sliceRoutes {
			must(fib.ApplyBatch(adds[off:off+sliceRoutes], nil))
		}
	})
	kernelNs := (kdel + kadd) / 2
	l.add("kernel.apply_ns_per_route", kernelNs)

	proc := fea.New(eventloop.New(nil), kernel.NewFIB(), nil, nil)
	loadBatches(in.entries, func(b *rib.FIBBatch) { must(proc.ApplyBatch(b)) })
	dels, addsB := sliceBatches(in.entries, in.slices)
	fdel, fadd, _ := bench2(in.rounds, in.sample, func() {
		for _, b := range dels {
			must(proc.ApplyBatch(b))
		}
	}, func() {
		for _, b := range addsB {
			must(proc.ApplyBatch(b))
		}
	})
	feaNs := (fdel + fadd) / 2
	l.add("fea.apply_ns_per_route", feaNs)
	// The FEA's own share: what ApplyBatch costs beyond its kernel and
	// fwd children, measured above on tables of the same size.
	l.add("fea.self_ns_per_route", feaNs-kernelNs-l.value("fwd.apply_ns_per_route"))
}

// discardFIB is a rib.FIBBatchClient that drops everything: the RIB
// driver measures the stage network, not what lies below it.
type discardFIB struct{}

func (discardFIB) FIBAdd(route.Entry)            {}
func (discardFIB) FIBReplace(_, _ route.Entry)   {}
func (discardFIB) FIBDelete(route.Entry)         {}
func (discardFIB) FIBApplyBatch(b *rib.FIBBatch) {}

func ribLayer(in *layerInputs, l *layerSet) {
	a := newRIB(eventloop.New(nil), discardFIB{})
	must(a.loadRoutes(in.entries))
	es, nets := in.entries[:in.sample], in.feed.prefixes[:in.sample]
	del, add, allocs := bench2(in.rounds, in.sample, func() {
		for off := 0; off < in.sample; off += sliceRoutes {
			a.run(func() { must(a.rib.DeleteRoutes(route.ProtoEBGP, nets[off:off+sliceRoutes])) })
		}
	}, func() {
		for off := 0; off < in.sample; off += sliceRoutes {
			a.run(func() { must(a.rib.AddRoutes(route.ProtoEBGP, es[off:off+sliceRoutes])) })
		}
	})
	l.add("rib.add_ns_per_route", add)
	l.add("rib.delete_ns_per_route", del)
	l.add("rib.add_allocs_per_route", allocs)

	// Single routes as trickle sends them: a prefix of peer "test" is
	// added to the full table and deleted again, one call and one drain each.
	t := in.trickle
	sadd, sdel, _ := bench2(in.rounds, len(t.prefixes), func() {
		for k, net := range t.prefixes {
			a.run(func() {
				must(a.rib.AddRoute(route.ProtoEBGP, route.Entry{Net: net, NextHop: bgpNexthops[t.first[k]]}))
			})
		}
	}, func() {
		for _, net := range t.prefixes {
			a.run(func() { must(a.rib.DeleteRoute(route.ProtoEBGP, net)) })
		}
	})
	l.add("rib.single_add_ns", sadd)
	l.add("rib.single_delete_ns", sdel)
}

func xifLayer(in *layerInputs, l *layerSet) {
	es := in.entries[:in.sample]
	// As the FEA receives them: resolved to a gateway and an interface.
	resolved := make([]route.Entry, len(es))
	for i, e := range es {
		resolved[i] = route.Entry{Net: e.Net, NextHop: gateways[in.feed.nexthop[i]], IfName: "eth0"}
	}
	atoms := make([]xrl.Atom, len(es))
	enc, _ := bench(in.rounds, len(es), func() {
		for i := range resolved {
			atoms[i] = xif.EncodeRouteAtom(resolved[i])
		}
	})
	dec, _ := bench(in.rounds, len(es), func() {
		for i := range atoms {
			e, err := xif.DecodeRouteAtom(atoms[i])
			must(err)
			sink += len(e.IfName)
		}
	})
	l.add("xif.route_encode_ns", enc)
	l.add("xif.route_decode_ns", dec)
}

func mustDecode(wire []byte) *bgp.UpdateMsg {
	m, err := bgp.DecodeMessage(wire)
	if err != nil || m.Update == nil {
		must(fmt.Errorf("decode generated UPDATE: %v", err))
	}
	return m.Update
}

func bgpLayer(in *layerInputs, l *layerSet) {
	f := in.feed
	perSlice := sliceRoutes / feedNLRI
	wires := f.announce[:in.slices*perSlice]
	msgs := make([]*bgp.UpdateMsg, len(wires))
	dec, _ := bench(in.rounds, in.sample, func() {
		for i, w := range wires {
			msgs[i] = mustDecode(w)
		}
	})
	l.add("bgp.decode_ns_per_route", dec)

	var buf []byte
	enc, _ := bench(in.rounds, in.sample, func() {
		for _, m := range msgs {
			var err error
			buf, err = bgp.AppendUpdate(buf[:0], m)
			must(err)
		}
	})
	l.add("bgp.encode_ns_per_route", enc)

	pool := bgp.NewAttrPool()
	held := make([]*bgp.PathAttrs, len(msgs))
	for i, m := range msgs {
		held[i] = pool.Intern(m.Attrs) // keep every set in the pool: the timed interns are hits
	}
	intern, _ := bench(in.rounds, len(msgs), func() {
		for _, m := range msgs {
			pool.Release(pool.Intern(m.Attrs))
		}
	})
	runtime.KeepAlive(held)
	l.add("bgp.intern_ns", intern)

	// The BGP process alone: peer-in → decision → fanout with nowhere to
	// send the winners (nil RIBClient) and static next-hop resolution.
	loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
	proc := bgp.NewProcess(loop, bgp.Config{AS: localAS, BGPID: netip.MustParseAddr("192.168.1.1")}, nil, nil)
	run := func(fn func()) {
		loop.Dispatch(fn)
		loop.RunPending()
	}
	run(func() {
		for _, pc := range []bgp.PeerConfig{
			{Name: "feed", LocalAddr: netip.MustParseAddr("192.168.1.1"), PeerAddr: netip.MustParseAddr("192.168.1.2"), PeerAS: feedPeerAS, Passive: true},
			{Name: "test", LocalAddr: netip.MustParseAddr("192.168.1.1"), PeerAddr: netip.MustParseAddr("192.168.1.3"), PeerAS: testPeerAS, Passive: true},
		} {
			_, err := proc.AddPeer(pc)
			must(err)
		}
	})
	inject := func(peer string, u *bgp.UpdateMsg) {
		must(proc.InjectUpdate(peer, u))
	}
	for off := 0; off < len(f.announce); off += perSlice {
		run(func() {
			for _, w := range f.announce[off:min(off+perSlice, len(f.announce))] {
				inject("feed", mustDecode(w))
			}
		})
	}
	withdraws := make([]*bgp.UpdateMsg, in.slices)
	decodeSlices := func() {
		for s := range withdraws {
			withdraws[s] = mustDecode(f.withdraw[s])
		}
		for i, w := range wires {
			msgs[i] = mustDecode(w)
		}
	}
	var pipeNs, pipeAllocs []float64
	for r := 0; r < in.rounds; r++ {
		decodeSlices()
		ns, allocs := bench(1, 2*in.sample, func() {
			for s := range withdraws {
				run(func() { inject("feed", withdraws[s]) })
				run(func() {
					for _, m := range msgs[s*perSlice : (s+1)*perSlice] {
						inject("feed", m)
					}
				})
			}
		})
		pipeNs, pipeAllocs = append(pipeNs, ns), append(pipeAllocs, allocs)
	}
	l.add("bgp.pipeline_ns_per_route", median(pipeNs))
	l.add("bgp.pipeline_allocs_per_route", median(pipeAllocs))

	t := in.trickle
	var singles []float64
	for r := 0; r < in.rounds; r++ {
		var updates []*bgp.UpdateMsg
		for k := range t.prefixes {
			updates = append(updates, mustDecode(t.announce[k]), mustDecode(t.replace[k]), mustDecode(t.withdraw[k]))
		}
		ns, _ := bench(1, len(updates), func() {
			for _, u := range updates {
				run(func() { inject("test", u) })
			}
		})
		singles = append(singles, ns)
	}
	l.add("bgp.single_update_ns", median(singles))
}

// routeServerLayer counts the group encodes and the bytes a member
// receives per route on a small route server; both must repeat exactly.
func routeServerLayer(in *layerInputs, l *layerSet) {
	cfg := *in.cfg
	cfg.sizes.rsSlots = 5
	inst, err := setupRouteServer(&cfg, newDigest())
	must(err)
	rs := inst.(*routeServer)
	encodes0 := rs.group.EncodeCalls
	var bytes0 int64
	for _, b := range rs.memberBytes {
		bytes0 += b
	}
	txns := 2 * cfg.sizes.rsSlots
	for i := 0; i < txns; i++ {
		rs.txn(i, nil)
	}
	if rs.fails > 0 {
		must(fmt.Errorf("route server: %d ops failed", rs.fails))
	}
	var bytes1 int64
	for _, b := range rs.memberBytes {
		bytes1 += b
	}
	routes := float64(txns * rs.opsPerTxn())
	l.add("bgp.group_encodes_per_route", float64(rs.group.EncodeCalls-encodes0)/routes)
	l.add("bgp.bytes_per_member_route", float64(bytes1-bytes0)/float64(len(rs.peers))/routes)
}

func xrlCodecLayer(in *layerInputs, l *layerSet) {
	const n = 20000
	argLists := generateXRLArgs(in.cfg.seed, newDigest())
	newRequest := func(args xrl.Args) *xrl.Request {
		return &xrl.Request{Seq: 7, Target: sinkTarget, Command: "bench/1.0/sink", Key: "0123456789abcdef", Args: args}
	}
	for k, args := range argLists {
		req := newRequest(args)
		var buf []byte
		enc, _ := bench(in.rounds, n, func() {
			for i := 0; i < n; i++ {
				var err error
				buf, err = xrl.AppendRequest(buf[:0], req)
				must(err)
			}
		})
		var got xrl.Request
		dec, _ := bench(in.rounds, n, func() {
			for i := 0; i < n; i++ {
				err := xrl.ParseRequest(buf, &got)
				must(err)
			}
		})
		l.add(fmt.Sprintf("xrl.encode_ns_%dargs", xrlArgCounts[k]), enc)
		l.add(fmt.Sprintf("xrl.decode_ns_%dargs", xrlArgCounts[k]), dec)
	}
	// One round trip through the codec: request out and in, empty reply
	// out and in, with the four-argument list.
	req, rep := newRequest(argLists[1]), &xrl.Reply{Seq: 7}
	var reqBuf, repBuf []byte
	var gotReq xrl.Request
	var gotRep xrl.Reply
	_, allocs := bench(in.rounds, n, func() {
		for i := 0; i < n; i++ {
			// Errors were ruled out by the loops above: same codec, same inputs.
			reqBuf, _ = xrl.AppendRequest(reqBuf[:0], req)
			_ = xrl.ParseRequest(reqBuf, &gotReq)
			repBuf, _ = xrl.AppendReply(repBuf[:0], rep)
			_ = xrl.ParseReply(repBuf, &gotRep)
		}
	})
	l.add("xrl.codec_allocs_per_roundtrip", allocs)
}

// intraLayer measures one XRL between two Routers on a shared Hub and a
// shared loop driven from the caller: the hop bulk and trickle make twice
// per update (BGP → RIB → FEA), with no marshalling.
func intraLayer(in *layerInputs, l *layerSet) {
	loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
	hub := xipc.NewHub()
	f := finder.New(loop)
	f.AttachHub(hub)
	recv := xipc.NewRouter("intra_receiver", loop)
	recv.AttachHub(hub)
	t := xif.NewTarget(sinkTarget, "benchsink")
	xif.BindBench(t, xif.BenchSinkFunc(func(xrl.Args) (xrl.Args, error) { return nil, nil }))
	recv.AddTarget(t)
	var regErr error
	registered := false
	finder.RegisterTarget(recv, t, true, func(err error) { regErr, registered = err, true })
	loop.RunPending()
	if !registered || regErr != nil {
		must(fmt.Errorf("intra-process XRL: register target: %v", regErr))
	}
	send := xipc.NewRouter("intra_sender", loop)
	send.AttachHub(hub)
	call := xif.BenchSpec.NewXRL(sinkTarget, "sink", generateXRLArgs(in.cfg.seed, newDigest())[1]...)
	replies := 0
	reply := func(_ xrl.Args, err *xrl.Error) {
		mustXRL(err)
		replies++
	}
	const n = 20000
	rtt, _ := bench(in.rounds, n, func() {
		for i := 0; i < n; i++ {
			send.Send(call, reply)
			loop.RunPending()
		}
	})
	if replies != in.rounds*n {
		must(fmt.Errorf("intra-process XRL: %d replies to %d XRLs", replies, in.rounds*n))
	}
	l.add("xipc.intra_rtt_ns", rtt)
}

// tcpLayer measures the loopback transport on real loops: a stop-and-wait
// round trip, the socket operations per XRL of a pipelined window, and
// what the first call to a target pays for Finder resolution.
func tcpLayer(in *layerInputs, l *layerSet) {
	cfg := *in.cfg
	inst, err := setupXRL(&cfg, newDigest())
	must(err)
	x := inst.(*xrlLoad)
	defer x.close()
	n, txns, targets := 2000, 20, 32
	if cfg.quick {
		n, txns, targets = 200, 4, 8
	}
	call := x.calls[1]
	rtt, _ := bench(in.rounds, n, func() {
		for i := 0; i < n; i++ {
			_, err := x.send.Call(call)
			mustXRL(err)
		}
	})
	l.add("xipc.tcp_rtt_us", rtt/1e3)

	x.wantSunk = x.sunk.Load()
	w0, r0 := xipc.IOStats()
	for i := 0; i < txns; i++ {
		x.txn(i, nil)
	}
	w1, r1 := xipc.IOStats()
	if x.fails > 0 {
		must(fmt.Errorf("tcp XRL: %d XRLs failed", x.fails))
	}
	l.add("xipc.tcp_syscalls_per_xrl", float64((w1-w0)+(r1-r0))/float64(txns*xrlPerTxn))

	// A target never called before costs a resolve round trip to the
	// Finder on top of the call itself; the second call is the call alone.
	var resolve []float64
	for k := 0; k < targets; k++ {
		name := fmt.Sprintf("%s%02d", sinkTarget, k)
		err := x.addSink(name)
		must(err)
		cold := xif.BenchSpec.NewXRL(name, "sink", call.Args...)
		t0 := time.Now()
		_, err1 := x.send.Call(cold)
		t1 := time.Now()
		_, err2 := x.send.Call(cold)
		t2 := time.Now()
		if err1 != nil || err2 != nil {
			must(fmt.Errorf("tcp XRL: first call to %s: %v, second: %v", name, err1, err2))
		}
		resolve = append(resolve, float64((t1.Sub(t0)-t2.Sub(t1)).Nanoseconds())/1e3)
	}
	l.add("finder.resolve_us", median(resolve))
}

func eventloopLayer(in *layerInputs, l *layerSet) {
	const n = 100000
	loop := eventloop.New(nil)
	ran := 0
	fn := func() { ran++ }
	dispatch, _ := bench(in.rounds, n, func() {
		for i := 0; i < n; i++ {
			loop.Dispatch(fn)
		}
		loop.RunPending()
	})
	l.add("eventloop.dispatch_ns", dispatch)

	var runner loopRunner
	real := runner.start()
	wakes := 2000
	if in.cfg.quick {
		wakes = 200
	}
	wake, _ := bench(in.rounds, wakes, func() {
		for i := 0; i < wakes; i++ {
			real.DispatchAndWait(fn)
		}
	})
	runner.stop()
	l.add("eventloop.wake_rtt_us", wake/1e3)

	clock := eventloop.NewSimClock(time.Unix(0, 0))
	sim := eventloop.New(clock)
	timers := n / 10
	timer, _ := bench(in.rounds, timers, func() {
		for i := 0; i < timers; i++ {
			sim.OneShot(time.Duration(i+1)*time.Millisecond, fn)
		}
		sim.RunFor(time.Duration(timers+1) * time.Millisecond)
	})
	sink += ran
	l.add("eventloop.timer_ns", timer)
}

func newSimRouter() *rtrmgr.Router {
	r, err := rtrmgr.NewRouter(routerConfig, rtrmgr.Options{
		Clock:      eventloop.NewSimClock(time.Unix(0, 0)),
		SharedLoop: true,
	})
	if err == nil {
		err = r.Start()
	}
	must(err)
	r.SettleAll()
	return r
}

func rtrmgrLayer(in *layerInputs, l *layerSet) {
	start, _ := bench(2*in.rounds, 1, func() { newSimRouter().Stop() })
	l.add("rtrmgr.start_ms", start/1e6)
}

// probeLayer measures what ROADMAP item 4 promises stays near zero: a
// disabled profiler point, a disabled tracer stamp, and a metrics scrape.
func probeLayer(in *layerInputs, l *layerSet) {
	const n = 1 << 22
	net := in.feed.prefixes[0]
	pt := profiler.New(eventloop.RealClock{}).Point("bench_point")
	point, _ := bench(in.rounds, n, func() {
		for i := 0; i < n; i++ {
			if pt.Enabled() {
				pt.Logf("add %v", net)
			}
		}
	})
	tr := telemetry.NewTracer()
	stamp, _ := bench(in.rounds, n, func() {
		for i := 0; i < n; i++ {
			if tr.Enabled() {
				tr.Stamp(telemetry.StageRIBIn, net)
			}
		}
	})
	l.add("profiler.disabled_point_ns", point)
	l.add("telemetry.disabled_stamp_ns", stamp)

	r := newSimRouter()
	defer r.Stop()
	scrape, _ := bench(4*in.rounds, 1, func() {
		sink += len(r.BGP.Metrics().Render()) + len(r.RIB.Metrics().Render()) + len(r.FEA.Metrics().Render())
	})
	l.add("telemetry.scrape_us", scrape/1e3)
}

// budgetTerm is one row of a workload's layer budget: how many times an
// op of the workload pays an isolated layer cost.
type budgetTerm struct {
	metric string
	perOp  float64
}

// budgets say, per workload, which isolated layer costs one op is made
// of. The weights come from reading the code path at the commit that
// introduced the benchmark (see README.md, "Layer budget"); the residual
// printed under the table is what they fail to explain.
var budgets = map[string][]budgetTerm{
	// Half the ops are announces, which travel as list XRLs of up to 256
	// route atoms; half are withdraws, which travel one XRL per route on
	// both hops. Routes come in feed order, so the batch-shaped (cold)
	// drivers price them. The FEA's XRL handlers apply either kind entry
	// by entry; what a publish per route costs beyond the batch price is
	// in the residual.
	"bulk": {
		{"bgp.decode_ns_per_route", 1}, {"bgp.pipeline_ns_per_route", 1},
		{"xif.route_encode_ns", 1}, {"xif.route_decode_ns", 1},
		{"xipc.intra_rtt_ns", 1}, {"eventloop.dispatch_ns", 2},
		{"rib.add_ns_per_route", 0.5}, {"rib.delete_ns_per_route", 0.5},
		{"fea.self_ns_per_route", 1}, {"kernel.apply_ns_per_route", 1}, {"fwd.apply_ns_per_route", 1},
	},
	// Every op is one single-route update: two XRL hops, single-route RIB
	// calls, one snapshot publish.
	"trickle": {
		{"bgp.decode_ns_per_route", 1}, {"bgp.single_update_ns", 1},
		{"xipc.intra_rtt_ns", 2}, {"eventloop.dispatch_ns", 4},
		{"rib.single_add_ns", 2.0 / 3}, {"rib.single_delete_ns", 1.0 / 3},
		{"fea.self_ns_per_route", 1}, {"kernel.apply_ns_per_route", 1}, {"fwd.publish_ns_per_batch", 1},
	},
	// Half the ops are announces, encoded once per run for the whole
	// group; withdraws are encoded one message per prefix.
	"routeserver": {
		{"bgp.decode_ns_per_route", 1}, {"bgp.intern_ns", 1.0 / rsNLRI},
		{"bgp.pipeline_ns_per_route", 1}, {"bgp.encode_ns_per_route", 0.5},
	},
	// Request out and in, empty reply out and in; the arguments cycle
	// 0/4/16. Transport, syscalls and wake-ups have no isolated ns cost.
	"xrl": {
		{"xrl.encode_ns_0args", 1 + 1.0/3}, {"xrl.encode_ns_4args", 1.0 / 3}, {"xrl.encode_ns_16args", 1.0 / 3},
		{"xrl.decode_ns_0args", 1 + 1.0/3}, {"xrl.decode_ns_4args", 1.0 / 3}, {"xrl.decode_ns_16args", 1.0 / 3},
	},
	// One lookup, plus its share of the txn's 256 deletes and 256 adds.
	"forward": {
		{"fwd.lookup_ns", 1},
		{"rib.delete_ns_per_route", float64(sliceRoutes) / lookupBurst},
		{"rib.add_ns_per_route", float64(sliceRoutes) / lookupBurst},
		{"fea.apply_ns_per_route", 2 * float64(sliceRoutes) / lookupBurst},
	},
}

// printBudget prints the layer budget table: each layer's isolated cost
// beside the workload's measured wall clock per op, their sum, and the
// residual the isolated costs do not explain.
func printBudget(out io.Writer, workload string, wallPerOp float64, ms []metric) {
	value := make(map[string]float64, len(ms))
	for _, m := range ms {
		value[m.name] = m.value
	}
	fmt.Fprintf(out, "layer budget for %s (one op)\n", workload)
	fmt.Fprintf(out, "  %-32s %12s %8s %12s\n", "layer metric", "isolated ns", "per op", "ns per op")
	sum := 0.0
	for _, t := range budgets[workload] {
		c := value[t.metric] * t.perOp
		sum += c
		fmt.Fprintf(out, "  %-32s %12.1f %8.3f %12.1f\n", t.metric, value[t.metric], t.perOp, c)
	}
	measured := wallPerOp * 1e3
	fmt.Fprintf(out, "  %-32s %34.1f\n", "sum of layers", sum)
	fmt.Fprintf(out, "  %-32s %34.1f\n", "measured wall_us_per_op (as ns)", measured)
	fmt.Fprintf(out, "  %-32s %34.1f (%.0f%% of measured)\n", "residual", measured-sum, 100*(measured-sum)/measured)
	fmt.Fprintf(out, "  span.unattributed_share %.3f  trace.overhead_share %.3f\n",
		value["span.unattributed_share"], value["trace.overhead_share"])
}
