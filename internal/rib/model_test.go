package rib

import (
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"testing"
	"time"

	"xorp/internal/core"
	"xorp/internal/eventloop"
	"xorp/internal/route"
	"xorp/internal/telemetry"
)

// refRIB is the RIB restated as naively as it can be, sharing no code with
// the stages: every protocol's routes in a map, and after every change the
// whole final table recomputed from scratch. It is the reference the stage
// network — origin tries, pairwise merges, the ExtInt nexthop bookkeeping —
// is compared against; slow on purpose.
type refRIB struct {
	routes map[route.Protocol]map[netip.Prefix]route.Entry
	final  map[netip.Prefix]route.Entry
}

// The merge order of Figure 7: on a full tie the earlier protocol wins.
var (
	refInternal = []route.Protocol{route.ProtoConnected, route.ProtoStatic, route.ProtoRIP, route.ProtoOSPF}
	refExternal = []route.Protocol{route.ProtoEBGP, route.ProtoIBGP}
)

func newRefRIB() *refRIB {
	m := &refRIB{routes: map[route.Protocol]map[netip.Prefix]route.Entry{}, final: map[netip.Prefix]route.Entry{}}
	for _, proto := range append(slices.Clone(refInternal), refExternal...) {
		m.routes[proto] = map[netip.Prefix]route.Entry{}
	}
	return m
}

func (m *refRIB) apply(op batchOp) {
	net := op.e.Net.Masked()
	if op.del {
		delete(m.routes[op.proto], net)
		return
	}
	e := op.e
	e.Net, e.Protocol, e.AdminDistance = net, op.proto, route.AdminDistance(op.proto)
	m.routes[op.proto][net] = e
}

// refBetter reports whether b strictly beats a.
func refBetter(a, b route.Entry) bool {
	return b.AdminDistance < a.AdminDistance || (b.AdminDistance == a.AdminDistance && b.Metric < a.Metric)
}

// winners is the per-prefix best route among protos.
func (m *refRIB) winners(protos []route.Protocol) map[netip.Prefix]route.Entry {
	out := map[netip.Prefix]route.Entry{}
	for _, proto := range protos {
		for net, e := range m.routes[proto] {
			if cur, ok := out[net]; !ok || refBetter(cur, e) {
				out[net] = e
			}
		}
	}
	return out
}

// refResolve makes an external route usable: as it stands when it names an
// interface or has no nexthop, else through the longest internal winner
// covering its nexthop, found by scanning them all.
func refResolve(x route.Entry, internal map[netip.Prefix]route.Entry) (route.Entry, bool) {
	if x.IfName != "" || !x.NextHop.IsValid() {
		return x, true
	}
	var via route.Entry
	found := false
	for net, e := range internal {
		if net.Contains(x.NextHop) && (!found || net.Bits() > via.Net.Bits()) {
			via, found = e, true
		}
	}
	if !found {
		return x, false
	}
	x.IfName = via.IfName
	if via.NextHop.IsValid() {
		x.NextHop = via.NextHop
	}
	return x, true
}

// refOp is one entry of the model's diff.
type refOp struct {
	kind     string
	old, new route.Entry
}

func (o refOp) String() string { return fmt.Sprintf("%s [%v] -> [%v]", o.kind, o.old, o.new) }

func (o refOp) net() netip.Prefix {
	if o.kind == "delete" {
		return o.old.Net
	}
	return o.new.Net
}

func refLess(a, b netip.Prefix) int {
	if c := a.Addr().Compare(b.Addr()); c != 0 {
		return c
	}
	return a.Bits() - b.Bits()
}

// recompute rebuilds the final table from nothing and returns what changed
// since the last one, in prefix order.
func (m *refRIB) recompute() []refOp {
	internal, external := m.winners(refInternal), m.winners(refExternal)
	final := map[netip.Prefix]route.Entry{}
	for net, e := range internal {
		final[net] = e
	}
	for net, x := range external {
		x, ok := refResolve(x, internal)
		if !ok {
			continue
		}
		if i, both := internal[net]; both && refBetter(x, i) {
			continue
		}
		final[net] = x
	}
	var diff []refOp
	for net, old := range m.final {
		if _, ok := final[net]; !ok {
			diff = append(diff, refOp{kind: "delete", old: old})
		}
	}
	for net, e := range final {
		switch old, ok := m.final[net]; {
		case !ok:
			diff = append(diff, refOp{kind: "add", new: e})
		case !old.Equal(e):
			diff = append(diff, refOp{kind: "replace", old: old, new: e})
		}
	}
	slices.SortFunc(diff, func(a, b refOp) int { return refLess(a.net(), b.net()) })
	m.final = final
	return diff
}

// fibReplica is a forwarding table built from nothing but the FIBApplyBatch
// stream. It refuses a stream that is not well formed against itself (an
// add over a present prefix, a replace or delete whose old entry is not what
// the stream last said) and remembers the ops of the current step.
type fibReplica struct {
	t    *testing.T
	tbl  map[netip.Prefix]route.Entry
	step []refOp
}

func (f *fibReplica) FIBApplyBatch(b *FIBBatch) {
	b.Ops(func(op FIBOp) {
		have, had := f.tbl[op.Net()]
		switch op.Kind {
		case FIBOpAdd:
			if had {
				f.t.Errorf("FIB stream adds %v over [%v]", op.New, have)
			}
			f.tbl[op.New.Net] = op.New
			f.step = append(f.step, refOp{kind: "add", new: op.New})
		case FIBOpReplace:
			if !had || !have.Equal(op.Old) {
				f.t.Errorf("FIB stream replaces [%v] but the table has [%v] (%v)", op.Old, have, had)
			}
			f.tbl[op.New.Net] = op.New
			f.step = append(f.step, refOp{kind: "replace", old: op.Old, new: op.New})
		case FIBOpDelete:
			if !had || !have.Equal(op.Old) {
				f.t.Errorf("FIB stream deletes [%v] but the table has [%v] (%v)", op.Old, have, had)
			}
			delete(f.tbl, op.Old.Net)
			f.step = append(f.step, refOp{kind: "delete", old: op.Old})
		}
	})
}

// sameTable fails unless got holds exactly the model's final table.
func sameTable(t *testing.T, what string, want, got map[netip.Prefix]route.Entry) {
	t.Helper()
	for net, e := range want {
		if g, ok := got[net]; !ok || !g.Equal(e) {
			t.Fatalf("%s: %v is [%v] (present %v), model says [%v]", what, net, g, ok, e)
		}
	}
	for net, g := range got {
		if _, ok := want[net]; !ok {
			t.Fatalf("%s: holds [%v], model has no route for %v", what, g, net)
		}
	}
}

// coverScript generates a script aimed at the ExtInt stage: external routes
// whose nexthops sit under a /8, a /16 and a /24 (and their v6 likes, and a
// default route) that internal protocols announce, replace and withdraw, so
// nexthops are covered, uncovered, re-covered and out-specificked; some
// nexthops carry many prefixes and some exactly one; internal and external
// routes meet on the same prefixes, the covers included. Protocol and kind
// are held for up to burst ops so that maximal runs are long.
func coverScript(r *rand.Rand, burst int) []batchOp {
	covers := []netip.Prefix{
		mustP("0.0.0.0/0"), mustP("10.0.0.0/8"), mustP("10.1.0.0/16"), mustP("10.1.1.0/24"),
		mustP("10.1.2.0/24"), mustP("10.2.0.0/16"),
		mustP("2001:db8::/32"), mustP("2001:db8:1::/48"), mustP("2001:db8:1:1::/64"),
	}
	shared := []netip.Addr{
		mustA("10.1.1.9"), mustA("10.1.2.9"), mustA("10.2.0.9"), mustA("172.31.0.9"),
		mustA("2001:db8:1:1::9"), mustA("2001:db8:1:2::9"),
	}
	gateways := []netip.Addr{{}, {}, mustA("192.168.1.254"), mustA("192.168.2.254"), mustA("fe80::1")}
	dests := slices.Clone(covers)
	for i := 0; i < 6; i++ {
		dests = append(dests,
			netip.PrefixFrom(netip.AddrFrom4([4]byte{20, byte(i), 0, 0}), 16),
			netip.PrefixFrom(netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 0x01, byte(i)}), 48))
	}
	all := append(slices.Clone(refInternal), refExternal...)
	var ops []batchOp
	var proto route.Protocol
	var del bool
	once := 0
	for hold := 0; len(ops) < 260; hold-- {
		if hold <= 0 {
			proto, del = all[r.Intn(len(all))], r.Intn(3) == 0
			hold = 1 + r.Intn(burst)
		}
		external := proto == route.ProtoEBGP || proto == route.ProtoIBGP
		net := dests[r.Intn(len(dests))]
		if !external && r.Intn(3) > 0 {
			net = covers[r.Intn(len(covers))]
		}
		if del {
			ops = append(ops, batchOp{del: true, proto: proto, e: route.Entry{Net: net}})
			continue
		}
		e := route.Entry{Net: net, Metric: uint32(r.Intn(3))}
		switch {
		case !external:
			// Directly usable by construction; with or without a gateway.
			e.IfName = fmt.Sprintf("eth%d", r.Intn(3))
			e.NextHop = gateways[r.Intn(len(gateways))]
		case r.Intn(8) == 0:
			e.IfName = "eth9" // concrete
			e.NextHop = gateways[r.Intn(len(gateways))]
		case r.Intn(8) == 0:
			// A discard route: nothing to resolve.
		case r.Intn(6) == 0:
			once++
			e.NextHop = netip.AddrFrom4([4]byte{10, 1, byte(r.Intn(3)), byte(100 + once%100)})
		default:
			e.NextHop = shared[r.Intn(len(shared))]
		}
		ops = append(ops, batchOp{proto: proto, e: e})
	}
	return ops
}

// TestModelRIB drives cover-moving scripts through the stage network cut
// three ways and, after every call, holds the RIB's final table and a FIB
// replica built from the batch stream against refRIB. Fed one route at a
// time, the FIB is also held to the model's diff: it may touch no prefix
// whose final route did not change. A §5.1 cache stage between the ExtInt
// and register stages holds the stream to the consistency rules.
func TestModelRIB(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		ops := coverScript(rand.New(rand.NewSource(seed)), 1+5*int(seed%3))
		r := rand.New(rand.NewSource(100 + seed))
		cuts := []struct {
			name string
			cut  func(max int) int
		}{
			{"singletons", nil},
			{"maximal runs", maximalRuns},
			{"random cuts", func(max int) int { return 1 + r.Intn(max) }},
		}
		for _, c := range cuts {
			loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
			fib := &fibReplica{t: t, tbl: map[netip.Prefix]route.Entry{}}
			p := NewProcess(loop, fib, nil)
			var violations telemetry.Counter
			cache := core.NewCacheStage[route.Entry]("cache", &violations)
			cache.Panic = true
			p.chain = append([]Stage{cache}, p.chain...)
			core.Plumb[route.Entry](p.extint, p.chain...)
			model := newRefRIB()
			for start := 0; start < len(ops); {
				run := ops[start : start+1]
				if c.cut != nil {
					end := start + 1
					for end < len(ops) && ops[end].proto == ops[start].proto && ops[end].del == ops[start].del {
						end++
					}
					run = ops[start : start+c.cut(end-start)]
				}
				what := fmt.Sprintf("seed %d, %s, ops %d..%d (%v del=%v %v ...)",
					seed, c.name, start, start+len(run)-1, run[0].proto, run[0].del, run[0].e)
				start += len(run)
				fib.step = fib.step[:0]
				switch {
				case c.cut == nil && run[0].del:
					p.DeleteRoute(run[0].proto, run[0].e.Net) // a miss is an error and a no-op
				case c.cut == nil:
					if err := p.AddRoute(run[0].proto, run[0].e); err != nil {
						t.Fatal(err)
					}
				case run[0].del:
					nets := make([]netip.Prefix, len(run))
					for i := range run {
						nets[i] = run[i].e.Net
					}
					if err := p.DeleteRoutes(run[0].proto, nets); err != nil {
						t.Fatal(err)
					}
				default:
					es := make([]route.Entry, len(run))
					for i := range run {
						es[i] = run[i].e
					}
					if err := p.AddRoutes(run[0].proto, es); err != nil {
						t.Fatal(err)
					}
				}
				for _, op := range run {
					model.apply(op)
				}
				diff := model.recompute()

				got := map[netip.Prefix]route.Entry{}
				walkFinal(p, func(e route.Entry) bool {
					got[e.Net] = e
					return true
				})
				sameTable(t, what+": final table", model.final, got)
				if p.Len() != len(model.final) {
					t.Fatalf("%s: Len() = %d, model has %d", what, p.Len(), len(model.final))
				}
				sameTable(t, what+": FIB replica", model.final, fib.tbl)
				if n := len(model.winners(refExternal)); p.extint.ExternalRouteCount() != n {
					t.Fatalf("%s: ExternalRouteCount() = %d, model has %d", what, p.extint.ExternalRouteCount(), n)
				}
				if c.cut == nil {
					changed := map[netip.Prefix]bool{}
					for _, d := range diff {
						changed[d.net()] = true
					}
					for _, o := range fib.step {
						if !changed[o.net()] {
							t.Fatalf("%s: FIB stream touched an unchanged prefix: %v\nmodel diff: %v", what, o, diff)
						}
					}
				}
				if t.Failed() {
					t.Fatalf("%s: malformed FIB stream", what)
				}
			}
			if n := violations.Value(); n != 0 {
				t.Fatalf("seed %d, %s: the cache stage counted %d consistency violations", seed, c.name, n)
			}
		}
	}
}
