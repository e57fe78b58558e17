package kernel

import (
	"net/netip"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"xorp/internal/route"
	"xorp/internal/trie"
)

func mustA(s string) netip.Addr   { return netip.MustParseAddr(s) }
func mustP(s string) netip.Prefix { return netip.MustParsePrefix(s) }

func TestNetworkDelivery(t *testing.T) {
	n := NewNetwork()
	a, err := n.Attach(mustA("10.0.0.1"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Attach(mustA("10.0.0.2"))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var got []string
	b.Bind(520, func(src netip.AddrPort, payload []byte) {
		mu.Lock()
		got = append(got, src.String()+":"+string(payload))
		mu.Unlock()
	})
	a.SendTo(520, netip.AddrPortFrom(mustA("10.0.0.2"), 520), []byte("hello"))
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || got[0] != "10.0.0.1:520:hello" {
		t.Fatalf("got %v", got)
	}
}

func TestNetworkUnknownDestinationDrops(t *testing.T) {
	n := NewNetwork()
	a, _ := n.Attach(mustA("10.0.0.1"))
	// No panic, silent drop like UDP.
	a.SendTo(520, netip.AddrPortFrom(mustA("10.0.0.99"), 520), []byte("x"))
	// Unbound port also drops.
	n.Attach(mustA("10.0.0.2"))
	a.SendTo(520, netip.AddrPortFrom(mustA("10.0.0.2"), 9999), []byte("x"))
}

func TestNetworkBroadcastExcludesSender(t *testing.T) {
	n := NewNetwork()
	hosts := make([]*Host, 4)
	counts := make([]int, 4)
	var mu sync.Mutex
	for i := range hosts {
		addr := netip.AddrFrom4([4]byte{10, 0, 0, byte(i + 1)})
		h, err := n.Attach(addr)
		if err != nil {
			t.Fatal(err)
		}
		hosts[i] = h
		i := i
		h.Bind(520, func(netip.AddrPort, []byte) {
			mu.Lock()
			counts[i]++
			mu.Unlock()
		})
	}
	hosts[0].Broadcast(520, 520, []byte("all"))
	mu.Lock()
	defer mu.Unlock()
	if counts[0] != 0 {
		t.Fatal("sender received its own broadcast")
	}
	for i := 1; i < 4; i++ {
		if counts[i] != 1 {
			t.Fatalf("host %d got %d datagrams", i, counts[i])
		}
	}
}

func TestNetworkMulticastGroups(t *testing.T) {
	n := NewNetwork()
	group := mustA("224.0.0.5")
	hosts := make([]*Host, 4)
	counts := make([]int, 4)
	var mu sync.Mutex
	for i := range hosts {
		addr := netip.AddrFrom4([4]byte{10, 0, 0, byte(i + 1)})
		h, err := n.Attach(addr)
		if err != nil {
			t.Fatal(err)
		}
		hosts[i] = h
		i := i
		h.Bind(89, func(netip.AddrPort, []byte) {
			mu.Lock()
			counts[i]++
			mu.Unlock()
		})
	}
	// Hosts 0-2 join; host 3 stays out.
	for i := 0; i < 3; i++ {
		if err := hosts[i].JoinGroup(group); err != nil {
			t.Fatal(err)
		}
	}
	if err := hosts[0].JoinGroup(mustA("10.0.0.9")); err == nil {
		t.Fatal("unicast address accepted as a group")
	}
	hosts[0].SendTo(89, netip.AddrPortFrom(group, 89), []byte("hello"))
	mu.Lock()
	if counts[0] != 0 {
		t.Fatal("sender received its own multicast")
	}
	if counts[1] != 1 || counts[2] != 1 {
		t.Fatalf("members got %v, want one each", counts[:3])
	}
	if counts[3] != 0 {
		t.Fatal("non-member received multicast")
	}
	mu.Unlock()

	// The drop predicate sees the member's concrete address, so links
	// can be shaped for multicast exactly like unicast.
	n.SetDropFunc(func(src, dst netip.AddrPort) bool {
		return dst.Addr() == mustA("10.0.0.2")
	})
	hosts[0].SendTo(89, netip.AddrPortFrom(group, 89), []byte("hello"))
	n.SetDropFunc(nil)
	mu.Lock()
	if counts[1] != 1 || counts[2] != 2 {
		t.Fatalf("after shaped multicast got %v, want host1=1 host2=2", counts[:3])
	}
	mu.Unlock()

	// Leaving and detaching both end delivery.
	hosts[1].LeaveGroup(group)
	n.Detach(mustA("10.0.0.3"))
	hosts[0].SendTo(89, netip.AddrPortFrom(group, 89), []byte("hello"))
	mu.Lock()
	defer mu.Unlock()
	if counts[1] != 1 || counts[2] != 2 {
		t.Fatalf("delivery after leave/detach: %v", counts[:3])
	}
}

func TestNetworkDuplicateAttach(t *testing.T) {
	n := NewNetwork()
	if _, err := n.Attach(mustA("10.0.0.1")); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Attach(mustA("10.0.0.1")); err == nil {
		t.Fatal("duplicate attach accepted")
	}
	n.Detach(mustA("10.0.0.1"))
	if _, err := n.Attach(mustA("10.0.0.1")); err != nil {
		t.Fatalf("reattach after detach: %v", err)
	}
}

func TestNetworkDuplicateBind(t *testing.T) {
	n := NewNetwork()
	h, _ := n.Attach(mustA("10.0.0.1"))
	if err := h.Bind(520, func(netip.AddrPort, []byte) {}); err != nil {
		t.Fatal(err)
	}
	if err := h.Bind(520, func(netip.AddrPort, []byte) {}); err == nil {
		t.Fatal("duplicate bind accepted")
	}
	h.Unbind(520)
	if err := h.Bind(520, func(netip.AddrPort, []byte) {}); err != nil {
		t.Fatalf("rebind after unbind: %v", err)
	}
}

func TestNetworkDropFunc(t *testing.T) {
	n := NewNetwork()
	a, _ := n.Attach(mustA("10.0.0.1"))
	b, _ := n.Attach(mustA("10.0.0.2"))
	var mu sync.Mutex
	got := 0
	b.Bind(1, func(netip.AddrPort, []byte) {
		mu.Lock()
		got++
		mu.Unlock()
	})
	n.SetDropFunc(func(src, dst netip.AddrPort) bool { return true })
	a.SendTo(1, netip.AddrPortFrom(mustA("10.0.0.2"), 1), []byte("x"))
	n.SetDropFunc(nil)
	a.SendTo(1, netip.AddrPortFrom(mustA("10.0.0.2"), 1), []byte("x"))
	mu.Lock()
	defer mu.Unlock()
	if got != 1 {
		t.Fatalf("got %d datagrams, want 1 (one dropped)", got)
	}
}

func TestNetworkPayloadIsolation(t *testing.T) {
	// The receiver must not observe sender-side mutation of the buffer.
	n := NewNetwork()
	a, _ := n.Attach(mustA("10.0.0.1"))
	b, _ := n.Attach(mustA("10.0.0.2"))
	var mu sync.Mutex
	var rec []byte
	b.Bind(1, func(_ netip.AddrPort, p []byte) {
		mu.Lock()
		rec = p
		mu.Unlock()
	})
	buf := []byte("aaaa")
	a.SendTo(1, netip.AddrPortFrom(mustA("10.0.0.2"), 1), buf)
	buf[0] = 'z'
	mu.Lock()
	defer mu.Unlock()
	if string(rec) != "aaaa" {
		t.Fatalf("receiver saw mutated payload %q", rec)
	}
}

func TestQuickFIBMatchesModel(t *testing.T) {
	f := func(ops []uint32) bool {
		fib := NewFIB()
		model := map[netip.Prefix]FIBEntry{}
		var probes []netip.Addr
		for _, op := range ops {
			bits := int(op>>24) % 25
			a := netip.AddrFrom4([4]byte{byte(op), byte(op >> 8), 0, 0})
			// Inside the prefix op writes, and beside it.
			probes = append(probes,
				netip.AddrFrom4([4]byte{byte(op), byte(op >> 8), byte(op >> 16), 255}),
				netip.AddrFrom4([4]byte{byte(op >> 8), byte(op), 1, 1}))
			p, err := a.Prefix(bits)
			if err != nil {
				continue
			}
			e := FIBEntry{Net: p, NextHop: mustA("10.0.0.254"), IfName: "eth0"}
			if op%3 == 0 {
				fib.ApplyBatch(nil, []netip.Prefix{p})
				delete(model, p)
			} else {
				fib.ApplyBatch([]FIBEntry{e}, nil)
				model[p] = e
			}
		}
		if fib.Len() != len(model) {
			return false
		}
		for p := range model {
			probes = append(probes, p.Addr())
		}
		// Addresses few or no model prefixes cover.
		probes = append(probes, mustA("255.255.255.255"), mustA("203.0.113.7"), mustA("0.0.0.1"))
		for _, probe := range probes {
			// The naive longest match: a linear scan over the model.
			var want netip.Prefix
			for p := range model {
				if p.Contains(probe) && (!want.IsValid() || p.Bits() > want.Bits()) {
					want = p
				}
			}
			e, ok := fib.Lookup(probe)
			if ok != want.IsValid() || ok && e.Net != want {
				t.Logf("lookup %v: %v (found %v), want %v", probe, e.Net, ok, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFIBInstallObserver(t *testing.T) {
	fib := NewFIB()
	var seen []netip.Prefix
	fib.SetInstallObserver(func(e FIBEntry) { seen = append(seen, e.Net) })
	fib.ApplyBatch([]FIBEntry{FIBEntry{Net: mustP("10.0.0.0/8")}}, nil)
	fib.SetInstallObserver(nil)
	fib.ApplyBatch([]FIBEntry{FIBEntry{Net: mustP("11.0.0.0/8")}}, nil)
	if len(seen) != 1 || seen[0] != mustP("10.0.0.0/8") {
		t.Fatalf("observer saw %v", seen)
	}
}

// TestFIBObserverRunsOutsideLock pins the install-observer invariant:
// callbacks fire with the FIB mutex released, so an observer may
// reenter the FIB. If Commit or ApplyBatch ever invoked the callback
// under f.mu, the reentrant Lookup/Len calls here would deadlock (and
// the test would time out).
func TestFIBObserverRunsOutsideLock(t *testing.T) {
	fib := NewFIB()
	var seen []netip.Prefix
	fib.SetInstallObserver(func(e FIBEntry) {
		// Reentrant reads: legal only because the lock is not held.
		if _, ok := fib.Lookup(e.Net.Addr()); !ok {
			t.Errorf("observer: %v not visible at callback time", e.Net)
		}
		if fib.Len() == 0 {
			t.Error("observer: empty FIB at callback time")
		}
		seen = append(seen, e.Net)
	})

	if err := fib.ApplyBatch([]FIBEntry{FIBEntry{Net: mustP("10.0.0.0/8")}}, nil); err != nil {
		t.Fatal(err)
	}
	err := fib.ApplyBatch([]FIBEntry{
		{Net: mustP("10.1.0.0/16")},
		{Net: mustP("10.2.0.0/16")},
	}, []netip.Prefix{mustP("10.0.0.0/8")})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 {
		t.Fatalf("observer saw %d installs, want 3: %v", len(seen), seen)
	}
	if n := fib.Len(); n != 2 {
		t.Fatalf("Len = %d, want 2 after batch add+remove", n)
	}
}

// TestFIBApplyBatch covers the batch path's semantics: one call
// installs and removes atomically with respect to concurrent readers,
// and reports (without aborting on) invalid entries.
func TestFIBApplyBatch(t *testing.T) {
	fib := NewFIB()
	fib.ApplyBatch([]FIBEntry{FIBEntry{Net: mustP("192.168.0.0/16")}}, nil)

	err := fib.ApplyBatch([]FIBEntry{
		{Net: mustP("10.0.0.0/8"), NextHop: mustA("192.168.1.1")},
		{}, // invalid: must be reported but not abort the rest
		{Net: mustP("10.1.0.0/16")},
	}, []netip.Prefix{mustP("192.168.0.0/16"), mustP("172.16.0.0/12") /* absent */})
	if err == nil {
		t.Fatal("invalid entry not reported")
	}
	if n := fib.Len(); n != 2 {
		t.Fatalf("Len = %d, want 2", n)
	}
	if _, ok := fib.Lookup(mustA("192.168.1.1")); ok {
		t.Fatal("removed prefix still resolves")
	}
	e, ok := fib.Lookup(mustA("10.1.2.3"))
	if !ok || e.Net != mustP("10.1.0.0/16") {
		t.Fatalf("Lookup(10.1.2.3) = %v, %v", e, ok)
	}
}

// TestFIBValue pins what the table keeps per entry — a route.Stored, the
// route less its key (24 bytes, its next hop and name one interned handle,
// pinned in route_test.go), the one value the FEA's published snapshot
// holds too — and that reading it back costs no allocation, next hop and
// name included; an entry without either comes back without them.
func TestFIBValue(t *testing.T) {
	if got, want := reflect.TypeOf(NewFIB().tbl), reflect.TypeOf(trie.New[route.Stored]()); got != want {
		t.Errorf("the table is a %v, want %v", got, want)
	}
	f := NewFIB()
	named := FIBEntry{Net: mustP("10.0.0.0/8"), NextHop: mustA("192.168.1.1"), IfName: "eth0"}
	bare := FIBEntry{Net: mustP("11.0.0.0/8")}
	if err := f.ApplyBatch([]FIBEntry{named, bare}, nil); err != nil {
		t.Fatal(err)
	}
	for dst, want := range map[netip.Addr]FIBEntry{mustA("10.1.2.3"): named, mustA("11.1.2.3"): bare} {
		if got, ok := f.Lookup(dst); !ok || got != want {
			t.Errorf("Lookup(%v) = %v, %v; want %v", dst, got, ok, want)
		}
		if n := testing.AllocsPerRun(100, func() { f.Lookup(dst) }); n != 0 {
			t.Errorf("Lookup(%v) allocates %.1f/op", dst, n)
		}
	}
}

// TestReadsBetweenCommitsCopyNothing: Lookup and Len read the table under
// the lock and pin nothing, so the commits around them write in place and
// reuse the nodes they dropped — withdrawing and re-announcing 256 routes
// of a 4,096-route table allocates nothing, with 64 lookups and a Len
// after each commit. A read that pinned would make each commit copy the
// paths it touches again.
func TestReadsBetweenCommitsCopyNothing(t *testing.T) {
	f := NewFIB()
	var adds []route.Entry
	for i := 0; i < 4096; i++ {
		net := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 4), byte(i << 4), 0}), 24)
		adds = append(adds, route.Entry{Net: net, NextHop: mustA("192.168.1.1"), IfName: "eth0"})
	}
	if _, _, err := f.Commit(&writes{es: adds}); err != nil {
		t.Fatal(err)
	}
	slice := adds[1024 : 1024+256]
	removes, installs := &writes{es: slice, del: true}, &writes{es: slice}
	read := func() {
		for _, e := range slice[:64] {
			f.Lookup(e.Net.Addr())
		}
		if f.Len() == 0 {
			t.Fatal("empty FIB")
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		f.Commit(removes)
		read()
		f.Commit(installs)
		read()
	})
	if allocs != 0 {
		t.Fatalf("two commits with reads between them allocate %.1f", allocs)
	}
	if f.Len() != len(adds) {
		t.Fatalf("Len = %d, want %d", f.Len(), len(adds))
	}
}

// writes is a test batch of one kind: es installed, or removed with del.
// A pointer to one is a Writes that converts without allocating.
type writes struct {
	es  []route.Entry
	del bool
}

func (w *writes) Len() int { return len(w.es) }

func (w *writes) At(i int) (route.Entry, bool) { return w.es[i], w.del }

// ops is a test batch of mixed writes in arrival order: a "-" before a
// prefix removes it, anything else installs it via 192.168.1.1.
type ops []string

func (o ops) Len() int { return len(o) }

func (o ops) At(i int) (route.Entry, bool) {
	if net, del := strings.CutPrefix(o[i], "-"); del {
		return route.Entry{Net: mustP(net)}, true
	}
	return route.Entry{Net: mustP(o[i]), NextHop: mustA("192.168.1.1")}, false
}

// TestCommitAppliesInArrivalOrder: a commit writes its batch in the order
// the writes arrived, so a prefix deleted and then added again ends
// installed, one added and then deleted ends absent, and an add over an
// installed prefix replaces it. Applying every add before every remove
// fails the first case.
func TestCommitAppliesInArrivalOrder(t *testing.T) {
	f := NewFIB()
	f.ApplyBatch([]FIBEntry{{Net: mustP("10.0.0.0/8")}, {Net: mustP("12.0.0.0/8")}}, nil)
	var installs []string
	f.SetInstallObserver(func(e FIBEntry) { installs = append(installs, e.Net.String()) })
	_, removed, err := f.Commit(ops{"-10.0.0.0/8", "10.0.0.0/8", "11.0.0.0/8", "-11.0.0.0/8", "12.0.0.0/8", "-13.0.0.0/8"})
	if err != nil || removed != 2 {
		t.Fatalf("Commit: %d removed, err %v; want 2 and none", removed, err)
	}
	for net, want := range map[string]bool{"10.0.0.0/8": true, "11.0.0.0/8": false, "12.0.0.0/8": true} {
		if e, ok := f.Lookup(mustP(net).Addr()); ok != want || ok && e.NextHop != mustA("192.168.1.1") {
			t.Errorf("after the commit %s reads %v (present %v), want present %v via 192.168.1.1", net, e, ok, want)
		}
	}
	if want := []string{"10.0.0.0/8", "11.0.0.0/8", "12.0.0.0/8"}; !slices.Equal(installs, want) {
		t.Errorf("observer saw installs %v, want %v", installs, want)
	}
}
