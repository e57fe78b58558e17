package bgp

import (
	"fmt"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"xorp/internal/core"
	"xorp/internal/eventloop"
)

// The resolver used to keep a clone of every route it had emitted and
// answer Lookup from that table. The table is gone; this file is what it
// was for, as a model: a recording stage downstream of the resolver replays
// the emitted stream into a plain map of route values and holds the
// resolver to it after every step of a seeded-random script.

// modelSource is a MetricSource whose answers the script delivers when and
// in the order it likes. truth is what the RIB would say right now.
type modelSource struct {
	truth   map[netip.Addr]NexthopInfo
	pending []modelQuery
	watch   func(netip.Prefix)
}

type modelQuery struct {
	nh netip.Addr
	cb func(NexthopInfo)
}

func (s *modelSource) LookupNexthop(nh netip.Addr, cb func(NexthopInfo)) {
	s.pending = append(s.pending, modelQuery{nh, cb})
}

func (s *modelSource) WatchInvalidation(fn func(netip.Prefix)) { s.watch = fn }

// deliver answers pending query i with the truth of the moment.
func (s *modelSource) deliver(i int) {
	q := s.pending[i]
	s.pending = append(s.pending[:i], s.pending[i+1:]...)
	q.cb(s.truth[q.nh])
}

// modelRecorder stands where the decision process does. It checks the §5.1
// rules on every message against tbl, the replay of the stream so far, and
// — like the decision process — looks back up through the resolver while
// it handles the message.
type modelRecorder struct {
	core.Base[Route]
	t   *testing.T
	tbl map[netip.Prefix]Route
	log []string
}

func sameAnnotated(a, b *Route) bool {
	if a == nil || b == nil {
		return a == b
	}
	return SameRoute(a, b) && a.IGPMetric == b.IGPMetric && a.Resolvable == b.Resolvable
}

func fmtRoute(r *Route) string {
	if r == nil {
		return "<none>"
	}
	return fmt.Sprintf("%v via %v metric=%d resolvable=%v", r.Net, r.Attrs.NextHop, r.IGPMetric, r.Resolvable)
}

func (m *modelRecorder) fail(format string, args ...any) {
	m.t.Helper()
	for _, l := range m.log[max(0, len(m.log)-80):] {
		m.t.Log(l)
	}
	m.t.Fatalf(format, args...)
}

// held returns what the stream has left announced for net.
func (m *modelRecorder) held(net netip.Prefix) *Route {
	if r, ok := m.tbl[net]; ok {
		return &r
	}
	return nil
}

// checkLookup holds the resolver's answer for net to the replayed stream.
func (m *modelRecorder) checkLookup(when string, net netip.Prefix) {
	m.t.Helper()
	if got, want := lookup(m.Parent(), net), m.held(net); !sameAnnotated(got, want) {
		m.fail("%s: Lookup(%v) = %s, stream says %s", when, net, fmtRoute(got), fmtRoute(want))
	}
}

func (m *modelRecorder) Add(run []Route) {
	for _, r := range run {
		m.log = append(m.log, "    add "+fmtRoute(&r))
		if r.Attrs != run[0].Attrs || r.Src != run[0].Src {
			m.fail("run mixes attribute sets or sources at %v", r.Net)
		}
		if have := m.held(r.Net); have != nil {
			m.fail("add of %v, already announced as %s", r.Net, fmtRoute(have))
		}
	}
	for _, r := range run {
		m.tbl[r.Net] = r
	}
	for _, r := range run {
		m.checkLookup("in Add", r.Net)
	}
}

func (m *modelRecorder) Replace(old, new Route) {
	m.log = append(m.log, "    replace "+fmtRoute(&old)+" -> "+fmtRoute(&new))
	if old.Net != new.Net {
		m.fail("replace across prefixes %v -> %v", old.Net, new.Net)
	}
	if have := m.held(old.Net); !sameAnnotated(have, &old) {
		m.fail("replace of %s, but downstream holds %s", fmtRoute(&old), fmtRoute(have))
	}
	m.tbl[new.Net] = new
	m.checkLookup("in Replace", new.Net)
}

func (m *modelRecorder) Delete(run []Route) {
	for _, old := range run {
		m.log = append(m.log, "    delete "+fmtRoute(&old))
		if have := m.held(old.Net); !sameAnnotated(have, &old) {
			m.fail("delete of %s, but downstream holds %s", fmtRoute(&old), fmtRoute(have))
		}
		delete(m.tbl, old.Net)
	}
	for _, old := range run {
		m.checkLookup("in Delete", old.Net)
	}
}

func (m *modelRecorder) Lookup(net netip.Prefix, r *Route) (ok bool) {
	*r, ok = m.tbl[net]
	return ok
}

var (
	modelNexthops = []netip.Addr{mustA("10.0.0.1"), mustA("10.0.0.2"), mustA("10.0.1.1")}
	modelCovering = []netip.Prefix{mustP("10.0.0.0/24"), mustP("10.0.1.0/24")}
)

const modelNets = 96

func modelNet(i int) netip.Prefix {
	return netip.PrefixFrom(netip.AddrFrom4([4]byte{172, 16, byte(i), 0}), 24)
}

// modelCloningFilter is an in-filter of the kind only tests install: it
// never answers with the set it was shown, so the bank never hands on the
// set the PeerIn stores; it drops a quarter of the prefixes and moves another
// quarter onto a different nexthop, so the resolver can trust neither the
// set it is handed nor the nexthop the PeerIn stores.
func modelCloningFilter(r *Route) *PathAttrs {
	a := *r.Attrs
	switch r.Net.Addr().As4()[2] % 4 {
	case 0:
		return nil
	case 1:
		a.NextHop = modelNexthops[2]
	}
	return &a
}

type resolverModel struct {
	t     *testing.T
	rng   *rand.Rand
	loop  *eventloop.Loop
	src   *modelSource
	in    *PeerIn
	res   *NexthopResolver
	rec   *modelRecorder
	drain []*DeletionStage
}

func newResolverModel(t *testing.T, seed int64, cloning, damping bool) *resolverModel {
	m := &resolverModel{
		t:    t,
		rng:  rand.New(rand.NewSource(seed)),
		loop: eventloop.New(eventloop.NewSimClock(time.Unix(0, 0))),
		src:  &modelSource{truth: make(map[netip.Addr]NexthopInfo)},
		rec:  &modelRecorder{Base: newBase("recorder"), t: t, tbl: make(map[netip.Prefix]Route)},
	}
	for i, nh := range modelNexthops {
		m.src.truth[nh] = NexthopInfo{Resolvable: true, Metric: uint32(10 * (i + 1)), Covering: modelCovering[i/2]}
	}
	m.in = NewPeerIn(m.loop, testPeer("p1", "10.0.0.1", 65001, false), NewAttrPool())
	m.res = NewNexthopResolver("nexthop(p1)", m.src)
	var stages []Stage
	if damping {
		stages = append(stages, NewDampingStage("damping(p1)", m.loop))
	}
	filter := NewFilterBank("in-filter(p1)")
	if cloning {
		filter = NewFilterBank("in-filter(p1)", FilterFunc(modelCloningFilter))
	}
	Plumb(m.in, append(stages, filter, m.res, m.rec)...)
	return m
}

func (m *resolverModel) logf(format string, args ...any) {
	m.rec.log = append(m.rec.log, fmt.Sprintf(format, args...))
}

func (m *resolverModel) someNets(max int) []netip.Prefix {
	picked := m.rng.Perm(modelNets)[:1+m.rng.Intn(max)]
	nets := make([]netip.Prefix, len(picked))
	for i, p := range picked {
		nets[i] = modelNet(p)
	}
	return nets
}

// step runs one random script step.
func (m *resolverModel) step() {
	switch p := m.rng.Intn(100); {
	case p < 30: // announce or replace a run; now and then most of the table
		max := 6
		if m.rng.Intn(8) == 0 {
			max = modelNets
		}
		nh := modelNexthops[m.rng.Intn(len(modelNexthops))]
		nets := m.someNets(max)
		m.logf("announce %d nets from %v via %v", len(nets), nets[0], nh)
		attrs := attrsVia(nh.String(), 65001, uint16(64512+m.rng.Intn(4)))
		m.in.ReceiveUpdate(&UpdateMsg{Attrs: attrs, NLRI: nets}, 65000)
	case p < 45:
		nets := m.someNets(3)
		m.logf("withdraw %v", nets)
		m.in.ReceiveUpdate(&UpdateMsg{Withdrawn: nets}, 65000)
	case p < 70: // one answer, not necessarily the oldest
		if len(m.src.pending) > 0 {
			i := m.rng.Intn(len(m.src.pending))
			m.logf("answer %v: %+v", m.src.pending[i].nh, m.src.truth[m.src.pending[i].nh])
			m.src.deliver(i)
		}
	case p < 85: // the IGP moves under a covering subnet, or only says so
		c := m.rng.Intn(len(modelCovering))
		for i, nh := range modelNexthops {
			if i/2 != c {
				continue
			}
			info := m.src.truth[nh]
			switch m.rng.Intn(4) {
			case 0:
				info.Metric += 1 + uint32(m.rng.Intn(5))
			case 1:
				info.Resolvable = !info.Resolvable
			}
			m.src.truth[nh] = info
		}
		m.logf("invalidate %v", modelCovering[c])
		m.src.watch(modelCovering[c])
	case p < 92: // the session drops; sometimes the deletion stage gets one slice in
		d := m.in.PeerDown()
		m.logf("peer down, %d routes to delete", m.in.Len())
		if d != nil {
			m.drain = append(m.drain, d)
			if m.rng.Intn(2) == 0 {
				m.logf("deletion slice")
				if d.step() {
					d.task.Stop()
				}
			}
		}
	default:
		m.logf("run loop")
		m.loop.RunFor(time.Duration(m.rng.Intn(20)) * time.Minute)
	}
	for i := 0; i < modelNets; i++ {
		m.rec.checkLookup("after step", modelNet(i))
	}
}

// settle delivers every outstanding answer and finishes the background
// deletions, then holds the stream to what a resolver that recomputed
// everything from scratch would announce: upstream's answer for each net
// under the source's current word on its nexthop.
func (m *resolverModel) settle() {
	m.logf("settle")
	for len(m.src.pending) > 0 || m.loop.PendingTasks() > 0 {
		for len(m.src.pending) > 0 {
			m.src.deliver(0)
		}
		m.loop.RunPending()
	}
	if n := m.res.PendingOps(); n != 0 {
		m.rec.fail("%d ops still queued at quiescence", n)
	}
	for _, d := range m.drain {
		if !d.Done() {
			m.rec.fail("deletion stage still plumbed at quiescence")
		}
	}
	m.drain = nil
	for i := 0; i < modelNets; i++ {
		net := modelNet(i)
		m.rec.checkLookup("at quiescence", net)
		want := lookup(m.res.Parent(), net)
		if want != nil {
			c := *want
			info := m.src.truth[c.Attrs.NextHop]
			c.Resolvable, c.IGPMetric = info.Resolvable, info.Metric
			want = &c
		}
		if have := m.rec.held(net); !sameAnnotated(have, want) {
			m.rec.fail("at quiescence downstream holds %s, recomputed %s", fmtRoute(have), fmtRoute(want))
		}
	}
}

func TestResolverModel(t *testing.T) {
	variants := []struct {
		name             string
		cloning, damping bool
	}{
		{"plain", false, false},
		{"cloning-filter", true, false},
		{"damping", false, true},
		{"cloning-filter+damping", true, true},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			for seed := int64(1); seed <= 30; seed++ {
				m := newResolverModel(t, seed, v.cloning, v.damping)
				m.logf("seed %d", seed)
				for i := 0; i < 300; i++ {
					m.step()
					if i%100 == 99 {
						m.settle()
					}
				}
				assertResolverQuiescent(t, m.res)
			}
		})
	}
}
