package fwd_test

import (
	"fmt"
	"math/rand"
	"net/netip"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"xorp/internal/fwd"
	"xorp/internal/kernel"
	"xorp/internal/rib"
	"xorp/internal/route"
)

func mustP(s string) netip.Prefix { return netip.MustParsePrefix(s) }
func mustA(s string) netip.Addr   { return netip.MustParseAddr(s) }

func TestPublisherBasics(t *testing.T) {
	p := fwd.NewPublisher()
	s0 := p.Pin()
	if s0.Gen() != 0 || s0.Len() != 0 {
		t.Fatalf("initial snapshot gen=%d len=%d", s0.Gen(), s0.Len())
	}

	b := rib.NewFIBBatch()
	b.Add(route.Entry{Net: mustP("10.0.0.0/8"), NextHop: mustA("192.168.1.1")})
	b.Add(route.Entry{Net: mustP("10.1.0.0/16"), NextHop: mustA("192.168.1.2")})
	s1 := p.Apply(b)

	if s1.Gen() != 1 || s1.Len() != 2 {
		t.Fatalf("after batch: gen=%d len=%d", s1.Gen(), s1.Len())
	}
	// The old snapshot is untouched: version isolation.
	if s0.Len() != 0 {
		t.Fatal("generation 0 mutated by publish")
	}
	if e, ok := s1.Lookup(mustA("10.1.2.3")); !ok || e.Net != mustP("10.1.0.0/16") {
		t.Fatalf("LPM = %v, %v", e, ok)
	}
	if e, ok := s1.Lookup(mustA("10.2.0.1")); !ok || e.Net != mustP("10.0.0.0/8") {
		t.Fatalf("LPM fallback = %v, %v", e, ok)
	}
	if _, ok := s1.Lookup(mustA("11.0.0.1")); ok {
		t.Fatal("miss resolved")
	}

	s1 = p.Pin() // held across the next commit
	if s1.Gen() != 1 || s1.Len() != 2 {
		t.Fatalf("pinned: gen=%d len=%d", s1.Gen(), s1.Len())
	}
	d := rib.NewFIBBatch()
	d.Delete(route.Entry{Net: mustP("10.1.0.0/16")})
	s2 := p.Apply(d)
	if s2.Gen() != 2 || s2.Len() != 1 {
		t.Fatalf("after delete: gen=%d len=%d", s2.Gen(), s2.Len())
	}
	// s1 still answers from its own version.
	if e, ok := s1.Lookup(mustA("10.1.2.3")); !ok || e.Net != mustP("10.1.0.0/16") {
		t.Fatalf("old snapshot lost its entry: %v, %v", e, ok)
	}
}

// TestPinPublishesDirectWrite: a Pin after a direct FIB commit that no
// publish followed publishes the table as the next generation before it
// pins it, so Gen names what the snapshot holds and Current agrees; a Pin
// with no direct write since adds no generation.
func TestPinPublishesDirectWrite(t *testing.T) {
	fib := kernel.NewFIB()
	backend := fwd.NewSimBackend(fib)
	if err := backend.ApplyEntry(route.Entry{Net: mustP("10.0.0.0/8"), NextHop: mustA("192.168.1.1")}); err != nil {
		t.Fatal(err)
	}
	if s := backend.Pin(); s.Gen() != 1 || s.Len() != 1 {
		t.Fatalf("pinned after one apply: gen=%d len=%d, want 1 and 1", s.Gen(), s.Len())
	}
	if _, _, err := fib.Commit(batchOf(route.Entry{Net: mustP("10.1.0.0/16"), NextHop: mustA("192.168.1.2")})); err != nil {
		t.Fatal(err)
	}
	pinned := backend.Pin()
	if pinned.Gen() != 2 || pinned.Len() != 2 {
		t.Fatalf("pinned after a direct commit: gen=%d len=%d, want 2 and 2", pinned.Gen(), pinned.Len())
	}
	if cur := backend.Current(); cur.Gen() != 2 || cur.Len() != 2 {
		t.Fatalf("current after the pin: gen=%d len=%d, want 2 and 2", cur.Gen(), cur.Len())
	}
	if again := backend.Pin(); again.Gen() != 2 || again.Len() != 2 {
		t.Fatalf("a second pin: gen=%d len=%d, want 2 and 2", again.Gen(), again.Len())
	}
	if err := backend.ApplyEntry(route.Entry{Net: mustP("10.2.0.0/16"), NextHop: mustA("192.168.1.3")}); err != nil {
		t.Fatal(err)
	}
	if s := backend.Pin(); s.Gen() != 3 || s.Len() != 3 {
		t.Fatalf("pinned after the next apply: gen=%d len=%d, want 3 and 3", s.Gen(), s.Len())
	}
	if pinned.Len() != 2 {
		t.Fatalf("the generation-2 pin holds %d entries after a later apply, want 2", pinned.Len())
	}
}

// batchOf returns a batch adding es, in order.
func batchOf(es ...route.Entry) *rib.FIBBatch {
	b := rib.NewFIBBatch()
	for _, e := range es {
		b.Add(e)
	}
	return b
}

// model is the oracle's reference FIB: a map from the masked prefix to
// its entry, and a longest-prefix match that scans all of it.
type model map[netip.Prefix]route.Entry

func (m model) lookup(dst netip.Addr) (route.Entry, bool) {
	var best route.Entry
	found := false
	for net, e := range m {
		if net.Contains(dst) && (!found || net.Bits() > best.Net.Bits()) {
			best, found = e, true
		}
	}
	return best, found
}

// modelEntry draws a prefix of 10.0.0.0/13 of length /8…/24, so prefixes
// nest and repeat often, with a random gateway, interface and metric.
func modelEntry(rng *rand.Rand) route.Entry {
	a := netip.AddrFrom4([4]byte{10, byte(rng.Intn(8)), byte(rng.Intn(8) * 32), 0})
	return route.Entry{
		Net:      netip.PrefixFrom(a, 8+rng.Intn(17)).Masked(),
		NextHop:  netip.AddrFrom4([4]byte{192, 168, byte(rng.Intn(4)), byte(1 + rng.Intn(250))}),
		IfName:   fmt.Sprintf("eth%d", rng.Intn(3)),
		Metric:   uint32(rng.Intn(100)),
		Protocol: route.ProtoStatic,
	}
}

// kernelView is what the kernel FIB answers for e: no metric, no protocol.
func kernelView(e route.Entry) kernel.FIBEntry {
	return kernel.FIBEntry{Net: e.Net, NextHop: e.NextHop, IfName: e.IfName}
}

// checkAgainst compares the published snapshot and the kernel FIB with
// m, the model as of that snapshot's publish, and the model as of now
// for the FIB: Lookup on probes, Get on every prefix, Len, and Walk.
func checkAgainst(t *testing.T, step int, snap *fwd.Snapshot, fib *kernel.FIB, m model, probes []netip.Addr) {
	t.Helper()
	if snap.Len() != len(m) || fib.Len() != len(m) {
		t.Fatalf("step %d: snapshot holds %d, FIB %d, model %d", step, snap.Len(), fib.Len(), len(m))
	}
	for _, a := range probes {
		want, wantOK := m.lookup(a)
		got, ok := snap.Lookup(a)
		if ok != wantOK || ok && !got.Equal(want) {
			t.Fatalf("step %d: snapshot Lookup(%v) = %v, %v; model %v, %v", step, a, got, ok, want, wantOK)
		}
		fe, fok := fib.Lookup(a)
		if fok != wantOK || fok && fe != kernelView(want) {
			t.Fatalf("step %d: FIB Lookup(%v) = %v, %v; model %v, %v", step, a, fe, fok, want, wantOK)
		}
	}
	for net, want := range m {
		if got, ok := snap.Get(net); !ok || !got.Equal(want) {
			t.Fatalf("step %d: snapshot Get(%v) = %v, %v; model %v", step, net, got, ok, want)
		}
	}
	n := 0
	snap.Walk(func(got route.Entry) bool {
		if want, ok := m[got.Net]; !ok || !got.Equal(want) {
			t.Fatalf("step %d: snapshot walks %v; model %v, %v", step, got, want, ok)
		}
		n++
		return true
	})
	fib.Walk(func(got kernel.FIBEntry) bool {
		if want, ok := m[got.Net]; !ok || got != kernelView(want) {
			t.Fatalf("step %d: FIB walks %v; model %v, %v", step, got, want, ok)
		}
		n--
		return true
	})
	if n != 0 {
		t.Fatalf("step %d: the snapshot walks %d more entries than the FIB", step, n)
	}
}

// TestSnapshotFIBOracle is the differential oracle: 300 random batches
// of adds, replaces and deletes go through the SimBackend, and after each
// publish the snapshot and the kernel FIB are compared with a model — a
// map and a linear-scan longest match. Between batches the test writes
// straight to the FIB (Commit): the FIB shows such a write at once; it
// publishes nothing, and the next generation carries it to the data plane.
func TestSnapshotFIBOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	fib := kernel.NewFIB()
	backend := fwd.NewSimBackend(fib)
	m := model{}
	anyNet := func() netip.Prefix {
		for net := range m {
			return net
		}
		return netip.Prefix{}
	}

	for step := 0; step < 300; step++ {
		b := rib.NewFIBBatch()
		for n := rng.Intn(20) + 1; n > 0; n-- {
			switch e := modelEntry(rng); {
			case len(m) > 0 && rng.Intn(3) == 0:
				net := anyNet()
				b.Delete(m[net])
				delete(m, net)
			case len(m) > 0 && rng.Intn(3) == 0:
				old := m[anyNet()]
				e.Net = old.Net
				b.Replace(old, e)
				m[e.Net] = e
			default:
				if old, ok := m[e.Net]; ok {
					b.Replace(old, e)
				} else {
					b.Add(e)
				}
				m[e.Net] = e
			}
		}
		if err := backend.Apply(b); err != nil {
			t.Fatalf("step %d: apply: %v", step, err)
		}
		probes := make([]netip.Addr, 0, 128)
		for len(probes) < 128 {
			probes = append(probes, netip.AddrFrom4([4]byte{10, byte(rng.Intn(9)), byte(rng.Intn(256)), byte(rng.Intn(256))}))
		}
		snap := backend.Current()
		if snap.Gen() != uint64(step+1) {
			t.Fatalf("step %d: generation %d, want %d", step, snap.Gen(), step+1)
		}
		checkAgainst(t, step, snap, fib, m, probes)

		if step%3 != 0 {
			continue
		}
		// A direct write: the FIB has it now, and the next Apply publishes
		// it (checked above on the next step). It is a commit, so snap,
		// which was not pinned, is not read again.
		if e := modelEntry(rng); rng.Intn(2) == 0 || len(m) == 0 {
			e.Metric, e.Protocol = 0, 0
			if _, _, err := fib.Commit(batchOf(route.Entry{Net: e.Net, NextHop: e.NextHop, IfName: e.IfName})); err != nil {
				t.Fatal(err)
			}
			m[e.Net] = e
		} else {
			net := anyNet()
			d := rib.NewFIBBatch()
			d.Delete(route.Entry{Net: net})
			if _, removed, _ := fib.Commit(d); removed != 1 {
				t.Fatalf("step %d: removing %v found nothing", step, net)
			}
			delete(m, net)
		}
		if backend.Current() != snap {
			t.Fatalf("step %d: a direct FIB write published a snapshot", step)
		}
		if fib.Len() != len(m) {
			t.Fatalf("step %d: FIB holds %d after a direct write, model %d", step, fib.Len(), len(m))
		}
	}
}

// TestFIBBatchNetEffect: a random well-formed stream of adds, replaces
// and deletes over six prefixes, sent as one batch through
// Publisher.Apply, publishes exactly the table the stream leaves when
// applied op by op to a model. The streams delete and then re-add a
// prefix, and add and then delete one, inside the batch; a commit that
// applied every add before every delete loses the re-added prefixes.
func TestFIBBatchNetEffect(t *testing.T) {
	var readds, unadds int
	for trial := 0; trial < 30; trial++ {
		r := rand.New(rand.NewSource(int64(trial)))
		pub := fwd.NewPublisher()
		b := rib.NewFIBBatch()
		m := model{}                    // the stream applied op by op
		gone := map[netip.Prefix]bool{} // deleted within the batch
		added := map[netip.Prefix]bool{}
		for i := 0; i < 60; i++ {
			net := netip.PrefixFrom(netip.AddrFrom4([4]byte{50, byte(r.Intn(6)), 0, 0}), 16)
			e := route.Entry{Net: net, NextHop: netip.AddrFrom4([4]byte{10, 0, 0, byte(1 + r.Intn(250))})}
			cur, present := m[net]
			switch {
			case !present:
				if gone[net] {
					readds++
				}
				b.Add(e)
				m[net], added[net] = e, true
			case r.Intn(3) == 0:
				if added[net] {
					unadds++
				}
				b.Delete(cur)
				delete(m, net)
				gone[net] = true
			default:
				b.Replace(cur, e)
				m[net] = e
			}
		}
		snap := pub.Apply(b)
		if snap.Gen() != 1 || snap.Len() != len(m) {
			t.Fatalf("trial %d: published generation %d holding %d routes, want 1 and %d", trial, snap.Gen(), snap.Len(), len(m))
		}
		for net, want := range m {
			if got, ok := snap.Get(net); !ok || !got.Equal(want) {
				t.Fatalf("trial %d: %v published [%v] (present %v), model [%v]", trial, net, got, ok, want)
			}
		}
	}
	if readds == 0 || unadds == 0 {
		t.Fatalf("the streams re-added %d deleted prefixes and deleted %d added ones; want both", readds, unadds)
	}
}

// TestPinnedSnapshotNeverChanges: a pinned snapshot reads the same —
// Walk, Len, Gen and 128 longest matches — after 50 later batches of adds,
// replaces and deletes over the same prefixes, including its own, while
// the current snapshot follows the model.
func TestPinnedSnapshotNeverChanges(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pub := fwd.NewPublisher()
	m := model{}
	batch := func() {
		b := rib.NewFIBBatch()
		for n := 0; n < 20; n++ {
			e := modelEntry(rng)
			old, ok := m[e.Net]
			switch {
			case ok && rng.Intn(2) == 0:
				b.Delete(old)
				delete(m, e.Net)
			case ok:
				b.Replace(old, e)
				m[e.Net] = e
			default:
				b.Add(e)
				m[e.Net] = e
			}
		}
		pub.Apply(b)
	}
	for i := 0; i < 10; i++ {
		batch()
	}
	probes := make([]netip.Addr, 128)
	for i := range probes {
		probes[i] = netip.AddrFrom4([4]byte{10, byte(rng.Intn(9)), byte(rng.Intn(256)), byte(rng.Intn(256))})
	}
	type reading struct {
		gen     uint64
		n       int
		walk    []route.Entry
		matches []route.Entry
	}
	read := func(s *fwd.Snapshot) reading {
		r := reading{gen: s.Gen(), n: s.Len()}
		s.Walk(func(e route.Entry) bool { r.walk = append(r.walk, e); return true })
		for _, a := range probes {
			e, _ := s.Lookup(a)
			r.matches = append(r.matches, e)
		}
		return r
	}
	pinned := pub.Pin()
	want := read(pinned)
	if want.n != len(m) || len(want.walk) != len(m) {
		t.Fatalf("pinned %d entries and walked %d, model %d", want.n, len(want.walk), len(m))
	}
	for i := 0; i < 50; i++ {
		batch()
		got := read(pinned)
		if got.gen != want.gen || got.n != want.n || !slices.EqualFunc(got.walk, want.walk, route.Entry.Equal) || !slices.EqualFunc(got.matches, want.matches, route.Entry.Equal) {
			t.Fatalf("batch %d after the pin changed it: gen %d→%d, len %d→%d", i, want.gen, got.gen, want.n, got.n)
		}
	}
	checkAgainst(t, 50, pub.Current(), pub.FIB(), m, probes)
}

// TestConcurrentWritersAgree: a batch (Apply) and single-entry writes
// (ApplyEntry, RemoveEntry) racing on the same prefixes must leave the
// kernel FIB and the snapshot holding the same routes — each prefix one
// of the two writes — while a reader sees generations only go forward.
// While a single-entry write wrote the FIB and the snapshot chain under
// no lock of the backend's, 5 of 50,000 trials (ten runs) left the FIB on
// one writer's next hop and the snapshot on the other's.
func TestConcurrentWritersAgree(t *testing.T) {
	const trials, shared = 5000, 4
	fib := kernel.NewFIB()
	backend := fwd.NewSimBackend(fib)
	m := model{}

	var stop atomic.Bool
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		last := uint64(0)
		for !stop.Load() {
			if g := backend.Pin().Gen(); g < last {
				t.Errorf("generation went backward %d -> %d", last, g)
				return
			} else {
				last = g
			}
		}
	}()

	nets := make([]netip.Prefix, shared)
	for i := range nets {
		nets[i] = mustP(fmt.Sprintf("10.0.%d.0/24", i))
	}
	viaA, viaB := mustA("192.168.1.1"), mustA("192.168.1.2")
	divergent := 0
	for trial := 0; trial < trials; trial++ {
		own := route.Entry{Net: mustP(fmt.Sprintf("10.1.%d.0/24", trial%256)), NextHop: viaA, IfName: "eth0"}
		batch := rib.NewFIBBatch()
		for _, net := range nets {
			batch.Add(route.Entry{Net: net, NextHop: viaA, IfName: "eth0"})
		}
		batch.Add(own)
		removing := trial%2 == 1
		var wg sync.WaitGroup
		start := make(chan struct{})
		wg.Add(2)
		go func() {
			defer wg.Done()
			<-start
			if err := backend.Apply(batch); err != nil {
				t.Error(err)
			}
		}()
		go func() {
			defer wg.Done()
			<-start
			for _, net := range nets {
				if removing {
					backend.RemoveEntry(net)
				} else if err := backend.ApplyEntry(route.Entry{Net: net, NextHop: viaB, IfName: "eth1"}); err != nil {
					t.Error(err)
				}
			}
		}()
		close(start)
		wg.Wait()

		snap := backend.Current()
		m[own.Net] = own
		for _, net := range nets {
			got, ok := snap.Get(net)
			fe, fok := fib.Lookup(net.Addr())
			if ok != fok || ok && fe != kernelView(got) {
				divergent++
			}
			switch {
			case !ok && removing:
				delete(m, net)
			case ok && (got.NextHop == viaA || got.NextHop == viaB && !removing):
				m[net] = got
			default:
				t.Fatalf("trial %d: %v holds %v, %v: neither writer's", trial, net, got, ok)
			}
		}
	}
	stop.Store(true)
	reader.Wait()
	if divergent != 0 {
		t.Fatalf("%d of %d trials left the FIB and the snapshot on different next hops", divergent, trials)
	}
	checkAgainst(t, trials, backend.Current(), fib, m, []netip.Addr{mustA("10.0.0.1"), mustA("10.0.3.1"), mustA("10.1.7.1"), mustA("10.2.0.1")})
}

// TestRaceSwapVsLookup runs concurrent snapshot publication against
// lookups on pinned snapshots from other goroutines — the interleaving a
// pin makes safe. Meaningful under -race (the CI race job runs it); it
// also asserts reader-visible invariants: generations never go
// backward, and a snapshot's length always matches a full walk of it.
// Every route names an interface, so readers rebuild names from interned
// handles while the writer interns them.
func TestRaceSwapVsLookup(t *testing.T) {
	fib := kernel.NewFIB()
	backend := fwd.NewSimBackend(fib)

	ifName := func(p netip.Prefix) string { return fmt.Sprintf("eth%d", p.Addr().As4()[1]%4) }
	seed := rib.NewFIBBatch()
	prefixes := make([]netip.Prefix, 0, 64)
	for i := 0; i < 64; i++ {
		p := mustP(fmt.Sprintf("10.%d.0.0/16", i))
		seed.Add(route.Entry{Net: p, NextHop: mustA("192.168.1.1"), IfName: ifName(p)})
		prefixes = append(prefixes, p)
	}
	if err := backend.Apply(seed); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id)))
			lastGen := uint64(0)
			for !stop.Load() {
				snap := backend.Pin()
				if g := snap.Gen(); g < lastGen {
					t.Errorf("reader %d: generation went backward %d -> %d", id, lastGen, g)
					return
				} else {
					lastGen = g
				}
				a := netip.AddrFrom4([4]byte{10, byte(rng.Intn(64)), 1, 1})
				if e, ok := snap.Lookup(a); ok && (!e.Net.Contains(a) || e.IfName != ifName(e.Net)) {
					t.Errorf("reader %d: LPM %v dev %q for %v", id, e.Net, e.IfName, a)
					return
				}
				// Occasionally verify whole-snapshot consistency.
				if rng.Intn(512) == 0 {
					n := 0
					snap.Walk(func(route.Entry) bool { n++; return true })
					if n != snap.Len() {
						t.Errorf("reader %d: walk %d != len %d in one snapshot", id, n, snap.Len())
						return
					}
				}
			}
		}(r)
	}

	// Writer: churn adds/deletes through the backend.
	rng := rand.New(rand.NewSource(99))
	for step := 0; step < 400; step++ {
		b := rib.NewFIBBatch()
		for n := 0; n < 8; n++ {
			p := prefixes[rng.Intn(len(prefixes))]
			if rng.Intn(2) == 0 {
				b.Delete(route.Entry{Net: p})
			} else {
				b.Add(route.Entry{Net: p, NextHop: mustA("192.168.1.2"), IfName: ifName(p)})
			}
		}
		if err := backend.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
}

// TestTablesReturnTheKey: a prefix written with host bits set is filed
// under the masked prefix, and that is what each of the four route tables
// hands back from an exact get, a longest match and a walk — the key is
// the only copy. The RIB masks on entry; the snapshot and the kernel FIB
// are told 10.0.0.5/24 as it stands.
func TestTablesReturnTheKey(t *testing.T) {
	unmasked, key, dst := mustP("10.0.0.5/24"), mustP("10.0.0.0/24"), mustA("10.0.0.9")
	e := route.Entry{Net: unmasked, NextHop: mustA("192.168.1.1"), IfName: "eth0"}
	check := func(table, read string, got netip.Prefix, ok bool) {
		t.Helper()
		if !ok || got != key {
			t.Errorf("%s %s answers %v, %v; want the key %v", table, read, got, ok, key)
		}
	}

	origin := rib.NewOriginTable(route.ProtoStatic)
	final := rib.NewExtIntStage("extint", rib.NewOriginTable(route.ProtoEBGP), origin)
	origin.AddRoutes([]route.Entry{e})
	for name, tbl := range map[string]interface {
		Lookup(netip.Prefix, *route.Entry) bool
		LookupBest(netip.Addr) (route.Entry, bool)
		Walk(func(route.Entry) bool)
	}{"OriginTable": origin, "ExtIntStage": final} {
		for _, arg := range []netip.Prefix{unmasked, key} {
			var got route.Entry
			ok := tbl.Lookup(arg, &got)
			check(name, fmt.Sprintf("Lookup(%v)", arg), got.Net, ok)
		}
		got, ok := tbl.LookupBest(dst)
		check(name, "LookupBest", got.Net, ok)
		tbl.Walk(func(got route.Entry) bool { check(name, "Walk", got.Net, true); return true })
	}

	single, batched := fwd.NewPublisher(), fwd.NewPublisher()
	single.FIBAdd(e)
	b := rib.NewFIBBatch()
	b.Add(e)
	batched.Apply(b)
	for name, snap := range map[string]*fwd.Snapshot{"Snapshot (FIBAdd)": single.Current(), "Snapshot (Apply)": batched.Current()} {
		for _, arg := range []netip.Prefix{unmasked, key} {
			got, ok := snap.Get(arg)
			check(name, fmt.Sprintf("Get(%v)", arg), got.Net, ok)
		}
		got, ok := snap.Lookup(dst)
		check(name, "Lookup", got.Net, ok)
		snap.Walk(func(got route.Entry) bool { check(name, "Walk", got.Net, true); return true })
	}

	committed, applied := kernel.NewFIB(), kernel.NewFIB()
	if _, _, err := committed.Commit(batchOf(route.Entry{Net: unmasked, NextHop: e.NextHop, IfName: e.IfName})); err != nil {
		t.Fatal(err)
	}
	if err := applied.ApplyBatch([]kernel.FIBEntry{{Net: unmasked, NextHop: e.NextHop, IfName: e.IfName}}, nil); err != nil {
		t.Fatal(err)
	}
	for name, fib := range map[string]*kernel.FIB{"kernel.FIB (Commit)": committed, "kernel.FIB (ApplyBatch)": applied} {
		got, ok := fib.Lookup(dst)
		check(name, "Lookup", got.Net, ok)
		fib.Walk(func(got kernel.FIBEntry) bool { check(name, "Walk", got.Net, true); return true })
	}
}

// TestPoolForwarding runs a real worker pool briefly and checks the
// counter identities: lookups = hits + drops, and the miss traffic
// actually misses.
func TestPoolForwarding(t *testing.T) {
	fib := kernel.NewFIB()
	backend := fwd.NewSimBackend(fib)
	seed := rib.NewFIBBatch()
	prefixes := make([]netip.Prefix, 0, 32)
	for i := 0; i < 32; i++ {
		p := mustP(fmt.Sprintf("10.%d.0.0/16", i))
		seed.Add(route.Entry{Net: p, NextHop: mustA("192.168.1.1")})
		prefixes = append(prefixes, p)
	}
	backend.Apply(seed)

	stream, err := fwd.NewStream(fwd.StreamConfig{
		Prefixes: prefixes, Dist: "zipf", MissRatio: 0.25, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	pool := fwd.NewPool(backend, stream, 2)
	pool.Start()
	// Let every worker complete at least one flush quantum.
	for {
		agg := pool.Counters()
		if agg.Lookups >= 4096 {
			break
		}
	}
	pool.Stop()

	agg := pool.Counters()
	if agg.Lookups != agg.Hits+agg.Drops {
		t.Fatalf("lookups %d != hits %d + drops %d", agg.Lookups, agg.Hits, agg.Drops)
	}
	ratio := float64(agg.Drops) / float64(agg.Lookups)
	if ratio < 0.15 || ratio > 0.35 {
		t.Fatalf("drop ratio %.3f, want ~0.25 (miss traffic must miss)", ratio)
	}
}

// TestStreamDeterminismAndDistribution pins the stream contract: same
// seed, same ring; zipf skews toward the hottest prefix; uniform
// doesn't.
func TestStreamDeterminismAndDistribution(t *testing.T) {
	prefixes := make([]netip.Prefix, 64)
	for i := range prefixes {
		prefixes[i] = mustP(fmt.Sprintf("10.%d.0.0/16", i))
	}
	cfg := fwd.StreamConfig{Prefixes: prefixes, Dist: "zipf", Seed: 42}
	s1, err := fwd.NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := fwd.NewStream(cfg)
	c1, c2 := s1.Cursor(0), s2.Cursor(0)
	for i := 0; i < 1000; i++ {
		if c1.Next() != c2.Next() {
			t.Fatal("same seed produced different streams")
		}
	}

	countTop := func(s *fwd.Stream) int {
		cur := s.Cursor(0)
		top := 0
		for i := 0; i < s.Len(); i++ {
			if prefixes[0].Contains(cur.Next()) {
				top++
			}
		}
		return top
	}
	zipfTop := countTop(s1)
	uni, _ := fwd.NewStream(fwd.StreamConfig{Prefixes: prefixes, Dist: "uniform", Seed: 42})
	uniTop := countTop(uni)
	if zipfTop <= 2*uniTop {
		t.Fatalf("zipf top-prefix share %d not skewed vs uniform %d", zipfTop, uniTop)
	}

	if _, err := fwd.NewStream(fwd.StreamConfig{Prefixes: prefixes, Dist: "pareto"}); err == nil {
		t.Fatal("unknown distribution accepted")
	}
	if _, err := fwd.NewStream(fwd.StreamConfig{}); err == nil {
		t.Fatal("empty prefix set accepted")
	}
}

// loadedPublisher returns a publisher holding n distinct random /16…/24
// routes, applied 1,024 to a batch, and the routes.
func loadedPublisher(n int) (*fwd.Publisher, []route.Entry) {
	rng := rand.New(rand.NewSource(11))
	pub := fwd.NewPublisher()
	seen := make(map[netip.Prefix]bool)
	es := make([]route.Entry, 0, n)
	load := rib.NewFIBBatch()
	for len(es) < n {
		a := netip.AddrFrom4([4]byte{byte(1 + rng.Intn(223)), byte(rng.Intn(256)), byte(rng.Intn(256)), 0})
		net := netip.PrefixFrom(a, 16+rng.Intn(9)).Masked()
		if seen[net] {
			continue
		}
		seen[net] = true
		e := route.Entry{Net: net, NextHop: mustA("192.168.1.1"), IfName: "eth0"}
		es = append(es, e)
		load.Add(e)
		if load.Len() == 1024 {
			pub.Apply(load)
			load.Reset()
		}
	}
	pub.Apply(load)
	return pub, es
}

// TestSnapshotBytesPerRoute pins the live heap a route costs in the
// forwarding plane's table: a 32-byte leaf (a 16-byte header and a
// 16-byte route.Stored), or a 48-byte inner node for the few with routes
// under them, its share of the glue (32 bytes each) and of the fans above
// it. It measures 52 B, 44 of them scanned by the collector on every cycle
// (/gc/scan/heap:bytes); each bound is 8 % above. It also pins the
// lookup, which builds the prefix and the entry it returns, to no
// allocation.
func TestSnapshotBytesPerRoute(t *testing.T) {
	const n, bound, scanBound = 100000, 56, 48
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	scanBefore := heapScanBytes()
	pub, es := loadedPublisher(n)
	snap := pub.Current()
	pub = nil
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	inputs := float64(cap(es)) * float64(unsafe.Sizeof(es[0]))
	perRoute := (float64(after.HeapAlloc-before.HeapAlloc) - inputs) / n
	scanned := (float64(heapScanBytes()) - float64(scanBefore) - inputs) / n
	t.Logf("%.0f B of live heap per route, %.0f B of it scanned", perRoute, scanned)
	if perRoute > bound || scanned > scanBound {
		t.Fatalf("%.0f B of live heap per route, bound %d; %.0f B scanned, bound %d", perRoute, bound, scanned, scanBound)
	}
	dst := es[n/2].Net.Addr().Next()
	if allocs := testing.AllocsPerRun(200, func() { snap.Lookup(dst) }); allocs != 0 {
		t.Fatalf("Snapshot.Lookup allocates %.1f/op", allocs)
	}
	if e, ok := snap.Lookup(dst); !ok || !e.Net.Contains(dst) || snap.Len() != n {
		t.Fatalf("Lookup(%v) = %v, %v in a table of %d", dst, e, ok, snap.Len())
	}
}

// heapScanBytes reads /gc/scan/heap:bytes, the heap the collector scans
// on every cycle, as of the last GC.
func heapScanBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/scan/heap:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestApplyBatchAllocs pins what a batch costs: withdrawing and
// re-announcing 256 scattered routes of a 100k-route table. Unpinned, the
// FIB writes in place and reuses the nodes it dropped, and each publish
// rewrites the live Snapshot, so the two batches cost nothing. With the FIB pinned
// before each batch the batch copies each touched fan and trie node the
// pin reaches, once, and the fans keep the path short — 3.0 allocs/route
// (4.0 with a bucket between each fan and its /16's trie, 10.2 over a
// binary trie, ~19 when every route copied its whole path). The pin is
// the FIB's, so the count is the batch's own; Publisher.Pin adds its
// Snapshot.
func TestApplyBatchAllocs(t *testing.T) {
	pub, es := loadedPublisher(100000)

	const n = 256
	del, add := rib.NewFIBBatch(), rib.NewFIBBatch()
	for _, e := range es[5000 : 5000+n] { // a random, scattered 256 of the table
		del.Delete(e)
		add.Add(e)
	}
	for _, c := range []struct {
		pin   bool
		limit float64
	}{{false, 0}, {true, 3.5}} {
		apply := func(b *rib.FIBBatch) {
			if c.pin {
				pub.FIB().Pin()
			}
			pub.Apply(b)
		}
		g0 := pub.Current().Gen()
		perCycle := testing.AllocsPerRun(20, func() {
			apply(del)
			apply(add)
		})
		if got := pub.Current().Gen() - g0; got != 2*21 {
			t.Fatalf("pinned %v: %d generations for 21 delete+add cycles, want one per batch", c.pin, got)
		}
		if pub.Current().Len() != len(es) {
			t.Fatalf("pinned %v: table holds %d routes after the cycles, want %d", c.pin, pub.Current().Len(), len(es))
		}
		if perRoute := perCycle / (2 * n); perRoute > c.limit {
			t.Errorf("pinned %v: Publisher.Apply costs %.3f allocs/route on a %d-route batch, limit %.2f", c.pin, perRoute, n, c.limit)
		} else {
			t.Logf("pinned %v: %.3f allocs/route", c.pin, perRoute)
		}
	}
}

// TestPublishOneRouteAllocs pins a batch of one, trickle's shape: announce,
// replace and withdraw a /24 in a /8 the 100k-route table leaves empty.
// Unpinned, a publish costs nothing: the leaf is written in place or
// reused, the emptied fans stay, and the live Snapshot is rewritten. With
// the FIB pinned before each batch, the announce builds the four fans and
// the leaf, the replace copies them, and the withdraw copies the root fan
// and drops the three below it, which it would otherwise have to copy: 11
// allocations for the three (14 while each publish made a Snapshot).
func TestPublishOneRouteAllocs(t *testing.T) {
	pub, _ := loadedPublisher(100000)
	e := route.Entry{Net: mustP("240.1.2.0/24"), NextHop: mustA("192.168.1.1"), IfName: "eth0"}
	replaced := e
	replaced.NextHop = mustA("192.168.1.2")
	add, repl, del := rib.NewFIBBatch(), rib.NewFIBBatch(), rib.NewFIBBatch()
	add.Add(e)
	repl.Replace(e, replaced)
	del.Delete(replaced)
	n := pub.Current().Len()
	for _, c := range []struct {
		pin   bool
		bound float64
	}{{false, 0}, {true, 4.0}} {
		apply := func(b *rib.FIBBatch) {
			if c.pin {
				pub.FIB().Pin()
			}
			pub.Apply(b)
		}
		perPublish := testing.AllocsPerRun(50, func() {
			apply(add)
			apply(repl)
			apply(del)
		}) / 3
		if pub.Current().Len() != n {
			t.Fatalf("pinned %v: table holds %d routes after the cycles, want %d", c.pin, pub.Current().Len(), n)
		}
		if perPublish > c.bound {
			t.Errorf("pinned %v: a one-route publish costs %.2f allocations, bound %.1f", c.pin, perPublish, c.bound)
		}
		t.Logf("pinned %v: %.2f allocs per one-route publish", c.pin, perPublish)
	}
}

// BenchmarkPublisherApply prices bulk's shape at this layer: a 256-route
// batch withdrawn from a 100k-route table and announced again, with the
// FIB unpinned (it writes in place) and pinned before each batch (it
// copies what the pin holds).
func BenchmarkPublisherApply(b *testing.B) {
	const n = 256
	pub, es := loadedPublisher(100000)
	for _, pin := range []bool{false, true} {
		name := "unpinned"
		if pin {
			name = "pinned"
		}
		b.Run(name, func(b *testing.B) {
			var dels, adds []*rib.FIBBatch
			for off := 0; off+n <= len(es); off += 16 * n {
				del, add := rib.NewFIBBatch(), rib.NewFIBBatch()
				for _, e := range es[off : off+n] {
					del.Delete(e)
					add.Add(e)
				}
				dels, adds = append(dels, del), append(adds, add)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % len(dels)
				if pin {
					pub.FIB().Pin()
				}
				pub.Apply(dels[k])
				if pin {
					pub.FIB().Pin()
				}
				pub.Apply(adds[k])
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			routes := float64(2 * n * b.N)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/routes, "ns/route")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/routes, "allocs/route")
		})
	}
}
