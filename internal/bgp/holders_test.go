package bgp

import (
	"net/netip"
	"reflect"
	"runtime"
	"testing"
	"time"

	"xorp/internal/eventloop"
)

// Structural pins for "one route, one holder per role" (§5.1: the PeerIn is
// the only stage that stores input routes). The field-type walks fail when
// someone gives the resolver or a group member a per-route store again,
// whatever it is called; the byte pin fails when the stores come back in a
// shape the walks cannot see.

// reaches reports whether a value of type t can hold a value of one of the
// target types without going through an interface or a func: those are
// links to other stages and callbacks, not storage of this one.
func reaches(t reflect.Type, seen map[reflect.Type]bool, targets ...reflect.Type) bool {
	for _, target := range targets {
		if t == target {
			return true
		}
	}
	if seen[t] {
		return false
	}
	seen[t] = true
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Array:
		return reaches(t.Elem(), seen, targets...)
	case reflect.Map:
		return reaches(t.Key(), seen, targets...) || reaches(t.Elem(), seen, targets...)
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if reaches(t.Field(i).Type, seen, targets...) {
				return true
			}
		}
	}
	return false
}

// assertResolverQuiescent checks the two places a resolver may hold a route
// are empty: the op queues, and the stage's scratch run.
func assertResolverQuiescent(t *testing.T, n *NexthopResolver) {
	t.Helper()
	if len(n.queues) != 0 || len(n.waiters) != 0 || len(n.inflight) != 0 || len(n.run) != 0 {
		t.Fatalf("%s at quiescence: %d queued nets, %d awaited nexthops, %d queries in flight, scratch run of %d",
			n.name, len(n.queues), len(n.waiters), len(n.inflight), len(n.run))
	}
}

func TestResolverHoldsNoRoutes(t *testing.T) {
	route := reflect.TypeOf((*Route)(nil))
	rt := reflect.TypeOf(NexthopResolver{})
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		holds := reaches(f.Type, map[reflect.Type]bool{}, route)
		switch f.Name {
		case "queues", "base": // unresolved ops; the scratch run every stage builds its output in
			if !holds {
				t.Errorf("NexthopResolver.%s no longer reaches a *Route: update this test", f.Name)
			}
		default:
			if holds {
				t.Errorf("NexthopResolver.%s (%v) can hold a *Route; only the op queues may", f.Name, f.Type)
			}
		}
	}

	// And those two are empty once every answer is in.
	tr := newTestRouter(t, 65000)
	p1 := tr.addPeer(t, "p1", "10.0.0.1", 65001)
	fake := &fakeMetricSource{}
	p1.resolver.src = fake
	for i := 0; i < 100; i++ {
		p1.peerin.Announce(modelNet(i), attrsVia("10.0.0.1", 65001))
	}
	if p1.resolver.PendingOps() != 100 {
		t.Fatalf("%d ops queued before the answer, want 100", p1.resolver.PendingOps())
	}
	fake.answer(mustA("10.0.0.1"), NexthopInfo{Resolvable: true, Metric: 10, Covering: mustP("10.0.0.0/24")})
	tr.settle()
	if len(tr.sink.tbl) != 100 {
		t.Fatalf("%d routes reached the sink, want 100", len(tr.sink.tbl))
	}
	assertResolverQuiescent(t, p1.resolver)
}

func TestGroupMemberHoldsNoPrefixes(t *testing.T) {
	mt := reflect.TypeOf(groupMember{})
	for i := 0; i < mt.NumField(); i++ {
		f := mt.Field(i)
		if f.Type.Kind() == reflect.Map {
			t.Errorf("groupMember.%s is a map: per-member state must not grow with the table", f.Name)
		}
		if reaches(f.Type, map[reflect.Type]bool{}, reflect.TypeOf((*Route)(nil)), reflect.TypeOf(netip.Prefix{})) {
			t.Errorf("groupMember.%s (%v) can hold a route or a prefix", f.Name, f.Type)
		}
	}
}

// bytesPerRouteRouter is the route-server stage network: a PeerIn and a
// resolver per client, Decision, Fanout, one shared export bank and GroupOut.
func bytesPerRouteRouter(clients, routesEach int) (keep any, routes int) {
	loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
	dec, fan, pool := NewDecision("decision"), NewFanout("fanout", loop), NewAttrPool()
	Plumb(dec, fan)
	outBank := NewFilterBank("out-filter(group:rs)", FilterEBGPExport(65000, mustA("192.0.2.1")))
	group := NewGroupOut("rs")
	Plumb(outBank, group)
	fan.AddGroupBranch("group:rs", outBank)
	ins := make([]*PeerIn, clients)
	for c := range ins {
		addr := netip.AddrFrom4([4]byte{10, 0, 0, byte(1 + c)})
		h := &PeerHandle{Name: addr.String(), Addr: addr, AS: uint16(65001 + c)}
		ins[c] = NewPeerIn(loop, h, pool)
		resolver := NewNexthopResolver("nexthop("+h.Name+")", &StaticMetricSource{})
		Plumb(ins[c], resolver)
		if err := group.AddMember(h, GroupSenderFunc(func([]byte) {})); err != nil {
			panic(err)
		}
		dec.AddParent(resolver)
	}
	const perUpdate = 64
	for c, in := range ins {
		for first := 0; first < routesEach; first += perUpdate {
			u := &UpdateMsg{Attrs: attrsVia(in.Peer().Addr.String(), in.Peer().AS, uint16(64512+first/perUpdate))}
			for i := first; i < first+perUpdate && i < routesEach; i++ {
				u.NLRI = append(u.NLRI, netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(20 + c), byte(i >> 8), byte(i), 0}), 24))
			}
			in.ReceiveUpdate(u, 65000)
			loop.RunPending()
		}
	}
	if got := group.AnnouncedCount(); got != clients*routesEach {
		panic("route server did not announce every route")
	}
	return []any{ins, dec, fan, group}, clients * routesEach
}

// TestBGPBytesPerRoute pins the live heap a route costs across the BGP
// stage network of a route server: the PeerIn's trie nodes and Route, the
// export clone and its slot in the group's adj-RIB-out. It measures 322 B;
// the bound is 10 % above. With 184-byte trie nodes under the PeerIn it
// measured 391 B.
func TestBGPBytesPerRoute(t *testing.T) {
	const bound = 355
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	keep, n := bytesPerRouteRouter(8, 6400)
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	perRoute := float64(after.HeapAlloc-before.HeapAlloc) / float64(n)
	runtime.KeepAlive(keep)
	t.Logf("%.0f B of live heap per route", perRoute)
	if perRoute > bound {
		t.Fatalf("%.0f B of live heap per route, bound %d", perRoute, bound)
	}
}
