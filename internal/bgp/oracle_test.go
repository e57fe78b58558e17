package bgp

// Differential test wall around the BGP pipeline. The staged pipeline
// (interned PathAttrs, run coalescing, the shared GroupOut encode) must be
// observationally identical to a deliberately naive model of BGP route
// propagation that shares no code with the stages: the same adj-RIB-out
// contents, and byte-identical UPDATE streams per member once the
// pipeline's packed messages are normalized to one-prefix-per-message
// atoms. These tests run the two side by side on randomized workloads
// (peer mixes, policy mixes, attr mixes, mixed v4/v6) and compare.

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"net/netip"
	"slices"
	"testing"
	"time"

	"xorp/internal/eventloop"
	"xorp/internal/trie"
)

// oracleMember is one route-server client: a full input branch feeding the
// shared decision, plus a capture of everything the output side sent it.
type oracleMember struct {
	handle *PeerHandle
	in     *PeerIn
	gout   *GroupOut
	atoms  [][]byte // canonical one-prefix messages, in send order
}

// oracleRouter is a stage-level route server: interned attrs, one input
// branch per member, and one shared out-filter → GroupOut per group. A
// member with no group — every member, when solo is set — is a group of
// one behind its own peer branch.
type oracleRouter struct {
	t       testing.TB
	loop    *eventloop.Loop
	dec     *Decision
	fan     *Fanout
	pool    *AttrPool
	solo    bool
	localAS uint16
	members []*oracleMember
	byName  map[string]*oracleMember
	groups  map[string]*GroupOut
}

func newOracleRouter(t testing.TB, solo bool, localAS uint16) *oracleRouter {
	o := &oracleRouter{
		t:       t,
		loop:    eventloop.New(eventloop.NewSimClock(time.Unix(0, 0))),
		dec:     NewDecision("decision"),
		pool:    NewAttrPool(),
		solo:    solo,
		localAS: localAS,
		byName:  make(map[string]*oracleMember),
		groups:  make(map[string]*GroupOut),
	}
	o.fan = NewFanout("fanout", o.loop)
	Plumb(o.dec, o.fan)
	return o
}

// oracleExport is the export chain of a member: the standard transform
// for its session type, then the group's policy.
func oracleExport(ibgp bool, localAS uint16, localAddr netip.Addr, policy []Filter) []Filter {
	export := []Filter{FilterIBGPExport()}
	if !ibgp {
		export = []Filter{FilterEBGPExport(localAS, localAddr)}
	}
	return append(export, policy...)
}

// addMember wires one client: a private input branch, and an output
// branch shared with its group or (solo) its own.
func (o *oracleRouter) addMember(name, addr string, as uint16, group string, localAddr netip.Addr, policy []Filter) *oracleMember {
	ibgp := as == o.localAS
	m := &oracleMember{handle: testPeer(name, addr, as, ibgp)}
	m.in = NewPeerIn(o.loop, m.handle, o.pool)
	inFilter := NewFilterBank("in-filter(" + name + ")")
	resolver := NewNexthopResolver("nexthop("+name+")", &StaticMetricSource{})
	Plumb(m.in, inFilter, resolver)

	if o.solo {
		group = ""
	}
	g, ok := o.groups[group] // never holds ""
	if !ok {
		g = NewGroupOut(group)
		outBank := NewFilterBank("out-filter("+group+")", oracleExport(ibgp, o.localAS, localAddr, policy)...)
		Plumb(outBank, g)
		if group == "" {
			o.fan.AddPeerBranch(name, m.handle, outBank)
		} else {
			o.fan.AddGroupBranch("group:"+group, outBank)
			o.groups[group] = g
		}
	}
	if err := g.AddMember(m.handle, GroupSenderFunc(func(buf []byte) {
		m.atoms = append(m.atoms, atomizeBytes(o.t, buf)...)
	})); err != nil {
		o.t.Fatal(err)
	}
	m.gout = g

	o.dec.AddParent(resolver)
	o.members = append(o.members, m)
	o.byName[name] = m
	return m
}

func (o *oracleRouter) inject(name string, u *UpdateMsg) {
	o.byName[name].in.ReceiveUpdate(u, o.localAS)
	o.loop.RunPending()
}

// announcedSet flattens what one member has been told, for end-state
// comparison with the model.
func (o *oracleRouter) announcedSet(m *oracleMember) map[netip.Prefix]Route {
	set := make(map[netip.Prefix]Route)
	m.gout.WalkAnnounced(m.handle, func(r Route) bool {
		set[r.Net] = r
		return true
	})
	return set
}

// refRouter is the reference side of the wall: BGP route propagation
// written the obvious way, one prefix at a time. Every peer's routes sit
// in a map; a change to one prefix looks up the best route before and
// after with Route.Better, and every member whose view of the prefix
// changed gets a one-prefix message built from its own export chain. No
// stages, no runs, no sharing between members.
type refRouter struct {
	t       testing.TB
	localAS uint16
	members []*refMember
	byName  map[string]*refMember
}

type refMember struct {
	handle *PeerHandle
	export []Filter
	in     map[netip.Prefix]*Route // what the peer announces to us
	out    map[netip.Prefix]*Route // what we announce to the peer
	atoms  [][]byte
	// down is set while the peer's session is: it is told nothing, and
	// out is what a resync will tell it.
	down bool
}

func newRefRouter(t testing.TB, localAS uint16) *refRouter {
	return &refRouter{t: t, localAS: localAS, byName: make(map[string]*refMember)}
}

func (o *refRouter) addMember(name, addr string, as uint16, localAddr netip.Addr, policy []Filter) {
	ibgp := as == o.localAS
	m := &refMember{
		handle: testPeer(name, addr, as, ibgp),
		export: oracleExport(ibgp, o.localAS, localAddr, policy),
		in:     make(map[netip.Prefix]*Route),
		out:    make(map[netip.Prefix]*Route),
	}
	o.members = append(o.members, m)
	o.byName[name] = m
}

// inject applies one UPDATE: withdrawals, then announcements, prefix by
// prefix in message order. A route with our own AS in its path is one we
// must not use, and it replaces what the peer said before: the prefix is
// left with no route from this peer.
func (o *refRouter) inject(name string, u *UpdateMsg) {
	m := o.byName[name]
	for _, w := range u.Withdrawn {
		o.change(m, w.Masked(), nil)
	}
	for _, n := range u.NLRI {
		var r *Route
		if !u.Attrs.ASPath.Contains(o.localAS) {
			r = &Route{Net: n.Masked(), Attrs: u.Attrs, Src: m.handle, Resolvable: true}
		}
		o.change(m, n.Masked(), r)
	}
}

// peerDown withdraws everything a peer announced, in prefix order.
func (o *refRouter) peerDown(name string) {
	m := o.byName[name]
	var nets []netip.Prefix
	for net := range m.in {
		nets = append(nets, net)
	}
	slices.SortFunc(nets, trie.ComparePrefix)
	for _, net := range nets {
		o.change(m, net, nil)
	}
}

func (o *refRouter) best(net netip.Prefix) *Route {
	var best *Route
	for _, m := range o.members {
		if r := m.in[net]; r.Better(best) {
			best = r
		}
	}
	return best
}

// change sets (or, with r nil, clears) peer m's route for net and tells
// every member whose view of net that changes.
func (o *refRouter) change(m *refMember, net netip.Prefix, r *Route) {
	old := m.in[net]
	if old == nil && r == nil || SameRoute(old, r) {
		return // spurious withdrawal, duplicate announcement
	}
	before := o.best(net)
	if r == nil {
		delete(m.in, net)
	} else {
		m.in[net] = r
	}
	after := o.best(net)
	if before == after {
		return // a loser changed
	}
	for _, x := range o.members {
		had, has := x.view(before), x.view(after)
		switch {
		case has != nil:
			x.out[net] = has
			x.emit(o.t, &UpdateMsg{Attrs: has.Attrs, NLRI: []netip.Prefix{net}})
		case had != nil:
			delete(x.out, net)
			x.emit(o.t, &UpdateMsg{Withdrawn: []netip.Prefix{net}})
		}
	}
}

// view is what member x is told about winner r: nothing if r is its own
// or breaks the IBGP rule, else r under what x's export chain makes of its
// attributes — each filter is shown a fresh copy of the route carrying the
// answer of the one before it.
func (x *refMember) view(r *Route) *Route {
	if r == nil || !sendable(r.Src, x.handle) {
		return nil
	}
	for _, f := range x.export {
		a := f.Apply(r)
		if a == nil {
			return nil
		}
		r = &Route{Net: r.Net, Attrs: a, Src: r.Src, Resolvable: r.Resolvable}
	}
	return r
}

func (x *refMember) emit(t testing.TB, u *UpdateMsg) {
	if x.down {
		return
	}
	buf, err := AppendUpdate(nil, u)
	if err != nil {
		t.Fatalf("model encode: %v", err)
	}
	x.atoms = append(x.atoms, buf)
}

// atomizeMsg explodes one UPDATE into canonical one-prefix wire messages:
// the normalization that makes per-route and packed streams comparable.
func atomizeMsg(t testing.TB, u *UpdateMsg) [][]byte {
	var atoms [][]byte
	for _, w := range u.Withdrawn {
		buf, err := AppendUpdate(nil, &UpdateMsg{Withdrawn: []netip.Prefix{w}})
		if err != nil {
			t.Fatalf("atomize withdraw %v: %v", w, err)
		}
		atoms = append(atoms, buf)
	}
	for _, n := range u.NLRI {
		buf, err := AppendUpdate(nil, &UpdateMsg{Attrs: u.Attrs, NLRI: []netip.Prefix{n}})
		if err != nil {
			t.Fatalf("atomize announce %v: %v", n, err)
		}
		atoms = append(atoms, buf)
	}
	return atoms
}

// decodeUpdates decodes a run of concatenated wire messages (what a group
// member's transport receives).
func decodeUpdates(t testing.TB, buf []byte) []*UpdateMsg {
	var msgs []*UpdateMsg
	for len(buf) > 0 {
		n, _, err := HeaderInfo(buf)
		if err != nil {
			t.Fatalf("group stream header: %v", err)
		}
		m, err := DecodeMessage(buf[:n])
		if err != nil {
			t.Fatalf("group stream decode: %v", err)
		}
		if m.Update == nil {
			t.Fatalf("group stream sent non-UPDATE")
		}
		msgs = append(msgs, m.Update)
		buf = buf[n:]
	}
	return msgs
}

// atomizeBytes decodes what a group member was sent and atomizes each
// message.
func atomizeBytes(t testing.TB, buf []byte) [][]byte {
	var atoms [][]byte
	for _, u := range decodeUpdates(t, buf) {
		atoms = append(atoms, atomizeMsg(t, u)...)
	}
	return atoms
}

// oracleWorkload is a deterministic randomized update sequence, replayed
// identically into both routers.
type oracleEvent struct {
	peer string
	msg  func() *UpdateMsg // fresh message per replay (attrs must not be shared)
}

func cloneAttrs(a *PathAttrs) *PathAttrs {
	if a == nil {
		return nil
	}
	return a.Clone()
}

// buildWorkload generates peers, prefix universe, attr variants and an
// event sequence from one seed.
func buildWorkload(r *rand.Rand, steps int) (peers []struct {
	name, addr string
	as         uint16
	group      string
}, events []oracleEvent) {
	peers = []struct {
		name, addr string
		as         uint16
		group      string
	}{
		{"e1", "10.0.0.1", 65001, "rs"},
		{"e2", "10.0.0.2", 65002, "rs"},
		{"e3", "10.0.0.3", 65003, "rs"},
		{"e4", "10.0.0.4", 65004, "rs"},
		{"i1", "10.0.1.1", 65000, "ibgp"},
		{"i2", "10.0.1.2", 65000, "ibgp"},
	}

	// Small prefix universe (mixed v4/v6) so peers collide on prefixes and
	// the decision process emits replaces and winner flips.
	var universe []netip.Prefix
	for i := 0; i < 24; i++ {
		universe = append(universe, randPrefix4(r))
	}
	for i := 0; i < 12; i++ {
		universe = append(universe, randPrefix6(r))
	}

	// A few attr variants per peer: shared nexthop, varying paths/flags so
	// interning sees both duplicates and distinct sets.
	attrVariant := func(pi int) *PathAttrs {
		p := peers[pi]
		a := &PathAttrs{
			Origin:  uint8(r.Intn(3)),
			NextHop: mustA(p.addr),
		}
		seg := ASSegment{Type: SegSequence, ASes: []uint16{p.as}}
		for n := r.Intn(3); n > 0; n-- {
			seg.ASes = append(seg.ASes, uint16(64512+r.Intn(100)))
		}
		a.ASPath = ASPath{seg}
		if r.Intn(3) == 0 {
			a.MED, a.HasMED = uint32(r.Intn(100)), true
		}
		if p.as == 65000 && r.Intn(2) == 0 {
			a.LocalPref, a.HasLocalPref = uint32(50+r.Intn(200)), true
		}
		for n := r.Intn(3); n > 0; n-- {
			a.Communities = append(a.Communities, r.Uint32())
		}
		return a
	}
	variants := make([][]*PathAttrs, len(peers))
	for i := range peers {
		for v := 0; v < 3; v++ {
			variants[i] = append(variants[i], attrVariant(i))
		}
	}

	pick := func(max int) []netip.Prefix {
		k := 1 + r.Intn(max)
		var out []netip.Prefix
		for i := 0; i < k; i++ {
			out = append(out, universe[r.Intn(len(universe))])
		}
		return out
	}

	for s := 0; s < steps; s++ {
		pi := r.Intn(len(peers))
		name := peers[pi].name
		attrs := variants[pi][r.Intn(len(variants[pi]))]
		var nlri, wdr []netip.Prefix
		switch n := r.Intn(11); {
		case n < 6:
			nlri = pick(8)
		case n < 9:
			wdr = pick(4)
		case n < 10:
			wdr = pick(3)
			nlri = pick(5)
		default:
			// A looped re-announcement: the universe is small, so most of
			// these prefixes are held. Now and then it withdraws as well.
			nlri = pick(5)
			if r.Intn(3) == 0 {
				wdr = pick(2)
			}
			attrs = attrs.Clone()
			attrs.ASPath = append(attrs.ASPath, ASSegment{Type: SegSequence, ASes: []uint16{65000}})
		}
		a := attrs
		events = append(events, oracleEvent{peer: name, msg: func() *UpdateMsg {
			m := &UpdateMsg{Withdrawn: append([]netip.Prefix(nil), wdr...)}
			if len(nlri) > 0 {
				m.Attrs = cloneAttrs(a)
				m.NLRI = append([]netip.Prefix(nil), nlri...)
			}
			return m
		}})
	}
	return peers, events
}

func randPrefix6(r *rand.Rand) netip.Prefix {
	var b [16]byte
	b[0], b[1] = 0x20, 0x01
	for i := 2; i < 8; i++ {
		b[i] = byte(r.Intn(256))
	}
	p, _ := netip.AddrFrom16(b).Prefix(16 + r.Intn(49))
	return p
}

// oraclePolicies returns a randomized per-group extra policy chain,
// applied identically in both modes. The prefix-length filter is
// deliberately prefix-dependent, so fast-path runs must split correctly.
func oraclePolicies(r *rand.Rand) []Filter {
	var policy []Filter
	if r.Intn(2) == 0 {
		maxBits := 20 + r.Intn(30)
		policy = append(policy, FilterFunc(func(rt *Route) *PathAttrs {
			if rt.Net.Bits() > maxBits && rt.Net.Addr().Is4() {
				return nil
			}
			return rt.Attrs
		}))
	}
	if r.Intn(2) == 0 {
		med := uint32(r.Intn(500))
		policy = append(policy, FilterFunc(func(rt *Route) *PathAttrs {
			a := rt.Attrs.Clone()
			a.MED, a.HasMED = med, true
			return a
		}))
	}
	return policy
}

// TestFanoutMatchesPerPeer is the differential oracle: the pooled,
// run-coalescing, shared-encode pipeline — once with the members in their
// peer groups, once with every member a group of one — must emit a
// byte-identical normalized UPDATE stream to every member, and end with
// the same adj-RIB-out, as the per-prefix model fed the same workload.
func TestFanoutMatchesPerPeer(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(1000 + trial)))
			peers, events := buildWorkload(r, 300)
			localAddr := mustA("192.0.2.1")
			policies := map[string][]Filter{
				"rs":   oraclePolicies(r),
				"ibgp": oraclePolicies(r),
			}

			ref := newRefRouter(t, 65000)
			grouped := newOracleRouter(t, false, 65000)
			solo := newOracleRouter(t, true, 65000)
			for _, p := range peers {
				ref.addMember(p.name, p.addr, p.as, localAddr, policies[p.group])
				grouped.addMember(p.name, p.addr, p.as, p.group, localAddr, policies[p.group])
				solo.addMember(p.name, p.addr, p.as, p.group, localAddr, policies[p.group])
			}

			for _, ev := range events {
				ref.inject(ev.peer, ev.msg())
				grouped.inject(ev.peer, ev.msg())
				solo.inject(ev.peer, ev.msg())
			}

			for _, fast := range []*oracleRouter{grouped, solo} {
				for i, rm := range ref.members {
					fm := fast.members[i]
					name := fmt.Sprintf("%s(solo=%v)", rm.handle.Name, fast.solo)
					compareAtomStreams(t, name, rm.atoms, fm.atoms)
					fa := fast.announcedSet(fm)
					if len(rm.out) != len(fa) {
						t.Errorf("%s: adj-RIB-out size model=%d fast=%d", name, len(rm.out), len(fa))
						continue
					}
					for net, lr := range rm.out {
						fr, ok := fa[net]
						if !ok {
							t.Errorf("%s: %v announced by the model only", name, net)
							continue
						}
						// Src handles are per-router objects; compare by name.
						if !lr.Attrs.Equal(fr.Attrs) || lr.Src.Name != fr.Src.Name {
							t.Errorf("%s: %v differs: model=%+v(src %s) fast=%+v(src %s)",
								name, net, lr.Attrs, lr.Src.Name, fr.Attrs, fr.Src.Name)
						}
					}
				}
			}

			// The shared encode must actually share: with 4 members in the
			// EBGP group, encode calls must undercut messages sent.
			g := grouped.groups["rs"]
			if g.SentMsgs > 0 && int64(g.EncodeCalls) >= g.SentMsgs {
				t.Errorf("group rs: %d encode calls for %d sent messages (no sharing)", g.EncodeCalls, g.SentMsgs)
			}
			// A group of one is screened ahead of its branch: it keeps no
			// state for the routes its own peer sent.
			for _, m := range solo.members {
				m.gout.WalkAnnounced(m.handle, func(r Route) bool {
					if r.Src == m.handle {
						t.Errorf("%s: group of one stores its own route %v", m.handle.Name, r.Net)
					}
					return true
				})
				if got := m.gout.AnnouncedCount() - m.gout.MemberAnnouncedCount(m.handle); got != 0 {
					t.Errorf("%s: group of one holds %d suppressed routes", m.handle.Name, got)
				}
			}
		})
	}
}

func compareAtomStreams(t *testing.T, member string, model, fast [][]byte) {
	t.Helper()
	n := len(model)
	if len(fast) < n {
		n = len(fast)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(model[i], fast[i]) {
			lm, _ := DecodeMessage(model[i])
			fm, _ := DecodeMessage(fast[i])
			t.Fatalf("%s: atom %d differs:\n model %v %v attrs=%+v\n fast   %v %v attrs=%+v",
				member, i, lm.Update.Withdrawn, lm.Update.NLRI, lm.Update.Attrs,
				fm.Update.Withdrawn, fm.Update.NLRI, fm.Update.Attrs)
		}
	}
	if len(model) != len(fast) {
		extra, side := fast[n:], "fast"
		if len(model) > len(fast) {
			extra, side = model[n:], "model"
		}
		m, _ := DecodeMessage(extra[0])
		t.Fatalf("%s: stream lengths differ: model=%d fast=%d; first extra (%s): %+v",
			member, len(model), len(fast), side, m.Update)
	}
}

// TestOracleBatchedPeerDown runs the same differential comparison across a
// peer-down table drain: the deletion stage must withdraw what the model
// withdraws, in the same order.
func TestOracleBatchedPeerDown(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	peers, events := buildWorkload(r, 150)
	localAddr := mustA("192.0.2.1")

	ref := newRefRouter(t, 65000)
	fast := newOracleRouter(t, false, 65000)
	for _, p := range peers {
		ref.addMember(p.name, p.addr, p.as, localAddr, nil)
		fast.addMember(p.name, p.addr, p.as, p.group, localAddr, nil)
	}
	for _, ev := range events {
		ref.inject(ev.peer, ev.msg())
		fast.inject(ev.peer, ev.msg())
	}

	// Take e1 down: the stored table hands off to a deletion stage that
	// withdraws in background slices.
	ref.peerDown("e1")
	if d := fast.byName["e1"].in.PeerDown(); d != nil {
		for !d.Done() {
			d.step()
			fast.loop.RunPending()
		}
		fast.loop.RunPending()
	}

	for i, rm := range ref.members {
		compareAtomStreams(t, rm.handle.Name, rm.atoms, fast.members[i].atoms)
	}

	// The pool must have released every ref the drained table held;
	// remaining refs belong to the surviving peers' stored routes.
	var live int
	for _, m := range fast.members {
		live += m.in.Len()
	}
	if got := fast.pool.Refs(); got != live {
		t.Errorf("pool refs %d after drain, want %d (stored routes)", got, live)
	}
}

// TestReplayIsWhatGroupEmitted bounces a member's session after a
// randomized workload, in three states of its branch: caught up, with a
// pump still pending, and — a group of one — stalled by SetBusy while the
// workload goes on; and, parked then woken, after every member of its
// group was down (parkedThenWoken). The member forgets what it was told and is resynced.
// It must then hold exactly the model's adj-RIB-out, each prefix announced
// once, and be sent nothing more once the loop has run and the branch is
// released: the replay is what the group has emitted, neither behind the
// branch's stream nor ahead of it. The other members' streams stay the
// model's.
func TestReplayIsWhatGroupEmitted(t *testing.T) {
	for _, state := range []string{"caught up", "pump pending", "stalled"} {
		for _, target := range []string{"e1", "i1"} {
			for seed := int64(0); seed < 3; seed++ {
				t.Run(fmt.Sprintf("%s/%s/seed%d", state, target, seed), func(t *testing.T) {
					r := rand.New(rand.NewSource(2000 + seed))
					peers, events := buildWorkload(r, 200)
					localAddr := mustA("192.0.2.1")
					policies := map[string][]Filter{"rs": oraclePolicies(r), "ibgp": oraclePolicies(r)}
					ref := newRefRouter(t, 65000)
					fast := newOracleRouter(t, state == "stalled", 65000)
					for _, p := range peers {
						ref.addMember(p.name, p.addr, p.as, localAddr, policies[p.group])
						fast.addMember(p.name, p.addr, p.as, p.group, localAddr, policies[p.group])
					}
					for _, ev := range events[:150] {
						ref.inject(ev.peer, ev.msg())
						fast.inject(ev.peer, ev.msg())
					}
					if state == "stalled" {
						fast.fan.SetBusy(target, true)
					}
					for _, ev := range events[150:] {
						ref.inject(ev.peer, ev.msg())
						if state == "pump pending" {
							fast.byName[ev.peer].in.ReceiveUpdate(ev.msg(), fast.localAS)
						} else {
							fast.inject(ev.peer, ev.msg())
						}
					}

					branch := target
					if state != "stalled" {
						branch = "group:" + map[string]string{"e1": "rs", "i1": "ibgp"}[target]
					}
					if backlog := fast.fan.Backlog(branch); backlog == 0 != (state == "caught up") {
						t.Fatalf("branch %s has a backlog of %d at the bounce", branch, backlog)
					}
					x := fast.byName[target]
					start := len(x.atoms)
					x.gout.ResyncMember(x.handle)
					replayed := len(x.atoms) - start
					checkHolds(t, x.atoms[start:], ref.byName[target].out)
					fast.fan.SetBusy(target, false)
					fast.loop.RunPending()
					if later := len(x.atoms) - start - replayed; later != 0 {
						t.Fatalf("%s was sent %d more atoms after its replay", target, later)
					}
					for i, rm := range ref.members {
						if rm.handle.Name != target {
							compareAtomStreams(t, rm.handle.Name, rm.atoms, fast.members[i].atoms)
						}
					}
				})
			}
		}
	}
	for _, solo := range []bool{false, true} {
		for _, target := range []string{"e1", "i1"} {
			for seed := int64(0); seed < 3; seed++ {
				t.Run(fmt.Sprintf("parked then woken/solo=%v/%s/seed%d", solo, target, seed), func(t *testing.T) {
					parkedThenWoken(t, solo, target, seed)
				})
			}
		}
	}
}

// parkedThenWoken is TestReplayIsWhatGroupEmitted's parked case: every
// member of the target's group goes down over the middle events, so the
// group parks, and then the target alone comes back. Its wake must tell it
// exactly the model's adj-RIB-out and leave the group counting what a
// never-parked twin counts, and from then on the target's stream is the
// model's. A route whose export cannot be encoded, announced while the
// group is parked, stays unsent after the wake, and its withdrawal sends
// nothing.
func parkedThenWoken(t *testing.T, solo bool, target string, seed int64) {
	r := rand.New(rand.NewSource(2000 + seed))
	peers, events := buildWorkload(r, 200)
	localAddr := mustA("192.0.2.1")
	policies := map[string][]Filter{"rs": oraclePolicies(r), "ibgp": oraclePolicies(r)}
	ref := newRefRouter(t, 65000)
	fast := newOracleRouter(t, solo, 65000)
	twin := newOracleRouter(t, solo, 65000)
	for _, p := range peers {
		ref.addMember(p.name, p.addr, p.as, localAddr, policies[p.group])
		fast.addMember(p.name, p.addr, p.as, p.group, localAddr, policies[p.group])
		twin.addMember(p.name, p.addr, p.as, p.group, localAddr, policies[p.group])
	}
	inject := func(evs []oracleEvent) {
		for _, ev := range evs {
			ref.inject(ev.peer, ev.msg())
			fast.inject(ev.peer, ev.msg())
			twin.inject(ev.peer, ev.msg())
		}
	}
	// Equal counts: the per-source counts and the dropped prefixes,
	// sources by name.
	sameCounts := func(when string) {
		t.Helper()
		g, tg := fast.byName[target].gout, twin.byName[target].gout
		bySrc := func(g *GroupOut) map[string]int {
			m := make(map[string]int)
			for src, n := range g.bySrc {
				m[src.Name] = n
			}
			return m
		}
		if a, b := bySrc(g), bySrc(tg); !maps.Equal(a, b) {
			t.Fatalf("%s: per-source counts %v, the never-parked twin's %v", when, a, b)
		}
		if !maps.Equal(g.dropped, tg.dropped) {
			t.Fatalf("%s: dropped %v, the twin's %v", when, g.dropped, tg.dropped)
		}
	}

	inject(events[:100])
	x := fast.byName[target]
	for _, m := range slices.Clone(x.gout.members) {
		x.gout.down(m.handle)
		ref.byName[m.handle.Name].down = true
	}
	if !x.gout.parked || x.gout.AnnouncedCount() != 0 {
		t.Fatalf("group with no live member: parked %v, %d routes", x.gout.parked, x.gout.AnnouncedCount())
	}
	encodes := x.gout.EncodeCalls
	big := attrsVia("10.0.0.3", 65003) // fills a message: no export of it encodes
	for len(big.Communities) < 1012 {
		big.Communities = append(big.Communities, uint32(len(big.Communities)))
	}
	dropNet := mustP("10.250.0.0/16")
	for _, o := range []*oracleRouter{fast, twin} {
		o.inject("e3", &UpdateMsg{Attrs: big.Clone(), NLRI: []netip.Prefix{dropNet}})
	}
	inject(events[100:150])
	if x.gout.EncodeCalls != encodes {
		t.Fatalf("parked group encoded %d times", x.gout.EncodeCalls-encodes)
	}

	rx := ref.byName[target]
	rx.down = false
	start, refStart := len(x.atoms), len(rx.atoms)
	x.gout.ResyncMember(x.handle)
	checkHolds(t, x.atoms[start:], rx.out)
	if _, ok := x.gout.dropped[dropNet]; !ok {
		t.Fatalf("the wake did not record %v as dropped", dropNet)
	}
	sameCounts("at the wake")
	start = len(x.atoms)
	inject(events[150:])
	compareAtomStreams(t, target, rx.atoms[refStart:], x.atoms[start:])
	for i, rm := range ref.members {
		if fast.members[i].gout != x.gout {
			compareAtomStreams(t, rm.handle.Name, rm.atoms, fast.members[i].atoms)
		}
	}
	sameCounts("at the end")

	start = len(x.atoms)
	for _, o := range []*oracleRouter{fast, twin} {
		o.inject("e3", &UpdateMsg{Withdrawn: []netip.Prefix{dropNet}})
	}
	if len(x.atoms) != start {
		t.Fatalf("the dropped prefix's withdrawal sent %d atoms", len(x.atoms)-start)
	}
	sameCounts("after the withdrawal")
}

// checkHolds asserts that the atoms a member was sent since its session
// came up announce exactly the model's adj-RIB-out for it, once each.
func checkHolds(t *testing.T, atoms [][]byte, out map[netip.Prefix]*Route) {
	t.Helper()
	held := make(map[netip.Prefix][]byte)
	for _, atom := range atoms {
		m, err := DecodeMessage(atom)
		if err != nil || len(m.Update.Withdrawn) != 0 || len(m.Update.NLRI) != 1 {
			t.Fatalf("replay atom %+v (err %v) is not one announcement", m, err)
		}
		net := m.Update.NLRI[0]
		if held[net] != nil {
			t.Fatalf("replay announced %v twice", net)
		}
		held[net] = atom
	}
	for net, r := range out {
		want, err := AppendUpdate(nil, &UpdateMsg{Attrs: r.Attrs, NLRI: []netip.Prefix{net}})
		if err != nil {
			t.Fatalf("model encode: %v", err)
		}
		if !bytes.Equal(held[net], want) {
			t.Fatalf("%v: replay says %x, model %x", net, held[net], want)
		}
	}
	if len(held) != len(out) {
		t.Fatalf("replay announced %d prefixes, the model's adj-RIB-out holds %d", len(held), len(out))
	}
}

// TestGroupOutMembership exercises the per-member suppression bookkeeping
// through a real upstream: split horizon back to the originator, late
// joins, and the replace-to-unsendable withdraw.
func TestGroupOutMembership(t *testing.T) {
	g := NewGroupOut("rs")
	up := newUpstream()
	up.branch(nil, nil, g)
	h1 := testPeer("m1", "10.0.0.1", 65001, false)
	h2 := testPeer("m2", "10.0.0.2", 65002, false)
	var got1, got2 [][]byte
	if err := g.AddMember(h1, GroupSenderFunc(func(b []byte) { got1 = append(got1, append([]byte(nil), b...)) })); err != nil {
		t.Fatal(err)
	}

	net1 := mustP("10.1.0.0/16")
	r1 := Route{Net: net1, Attrs: attrsVia("10.0.0.1", 65001, 65009), Src: h1}
	up.announce([]Route{r1}) // from m1: split horizon suppresses m1
	if len(got1) != 0 {
		t.Fatalf("m1 received its own route")
	}
	if g.MemberAnnouncedCount(h1) != 0 || g.AnnouncedCount() != 1 {
		t.Fatalf("counts: member=%d group=%d", g.MemberAnnouncedCount(h1), g.AnnouncedCount())
	}

	// Late join: m2 must be resyncable with the route m1 contributed.
	if err := g.AddMember(h2, GroupSenderFunc(func(b []byte) { got2 = append(got2, append([]byte(nil), b...)) })); err != nil {
		t.Fatal(err)
	}
	g.ResyncMember(h2)
	if len(got2) != 1 {
		t.Fatalf("m2 resync sent %d bufs", len(got2))
	}
	if g.MemberAnnouncedCount(h2) != 1 {
		t.Fatalf("m2 announced count %d", g.MemberAnnouncedCount(h2))
	}

	// Replace with a (shorter, so better) route from m2: m1 gains it, m2
	// must get a withdraw (it previously saw m1's version).
	r2 := Route{Net: net1, Attrs: attrsVia("10.0.0.2", 65002), Src: h2}
	got1, got2 = nil, nil
	up.announce([]Route{r2})
	if len(got1) != 1 {
		t.Fatalf("m1 got %d bufs for replace", len(got1))
	}
	if len(got2) != 1 {
		t.Fatalf("m2 got %d bufs for replace", len(got2))
	}
	m2msg, err := DecodeMessage(got2[0])
	if err != nil || m2msg.Update == nil || len(m2msg.Update.Withdrawn) != 1 {
		t.Fatalf("m2 replace message not a withdraw: %+v err=%v", m2msg, err)
	}

	// Duplicate member join is rejected.
	if err := g.AddMember(h1, nil); err == nil {
		t.Fatal("duplicate member accepted")
	}

	// Delete: only m1 saw the route at this point. m1's own route, the
	// loser, goes first and changes nothing downstream.
	got1, got2 = nil, nil
	up.withdraw(r1)
	up.withdraw(r2)
	if len(got1) != 1 || len(got2) != 0 {
		t.Fatalf("delete fanout: m1=%d m2=%d", len(got1), len(got2))
	}
	if g.AnnouncedCount() != 0 {
		t.Fatalf("announced not drained: %d", g.AnnouncedCount())
	}
}

// TestDownMemberIsSentNothing: a member whose session is down, in a group
// another member keeps live, is sent nothing and reports 0, whichever way
// the change goes: announce, replace, withdraw.
func TestDownMemberIsSentNothing(t *testing.T) {
	g := NewGroupOut("rs")
	up := newUpstream()
	up.branch(nil, nil, g)
	spies := make([]int, 3)
	var handles []*PeerHandle
	for i := range spies {
		h := testPeer(fmt.Sprintf("m%d", i), fmt.Sprintf("10.0.0.%d", i+1), uint16(65001+i), false)
		spy := GroupSenderFunc(func([]byte) { spies[i]++ })
		if err := g.join(h, spy); err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	g.ResyncMember(handles[0])
	g.ResyncMember(handles[1])
	src := testPeer("src", "10.0.9.9", 65100, false)
	net := mustP("10.1.0.0/16")
	up.announce([]Route{{Net: net, Attrs: attrsVia("10.0.9.9", 65100), Src: src}})
	up.announce([]Route{{Net: net, Attrs: attrsVia("10.0.9.9", 65100, 65101), Src: src}})
	if spies[0] != 2 || spies[1] != 2 || spies[2] != 0 {
		t.Fatalf("sends to m0/m1/down m2: %v, want [2 2 0]", spies)
	}
	if g.MemberAnnouncedCount(handles[1]) != 1 || g.MemberAnnouncedCount(handles[2]) != 0 {
		t.Fatalf("counts: live %d, down %d; want 1 and 0", g.MemberAnnouncedCount(handles[1]), g.MemberAnnouncedCount(handles[2]))
	}
	g.down(handles[1])
	up.withdraw(Route{Net: net, Src: src})
	if spies[0] != 3 || spies[1] != 2 || spies[2] != 0 {
		t.Fatalf("withdrawal sends to m0/down m1/down m2: %v, want [3 2 0]", spies)
	}
}

// TestGroupOutRunSharesBytes asserts the core shared-encode property: one
// run added to an n-member group performs one encode, and every member's
// bytes are the same buffer content.
func TestGroupOutRunSharesBytes(t *testing.T) {
	g := NewGroupOut("rs")
	const members = 5
	got := make([][][]byte, members)
	var handles []*PeerHandle
	for i := 0; i < members; i++ {
		i := i
		h := testPeer(fmt.Sprintf("m%d", i), fmt.Sprintf("10.0.0.%d", i+1), uint16(65001+i), false)
		handles = append(handles, h)
		if err := g.AddMember(h, GroupSenderFunc(func(b []byte) {
			got[i] = append(got[i], append([]byte(nil), b...))
		})); err != nil {
			t.Fatal(err)
		}
	}
	src := testPeer("src", "10.0.9.9", 65100, false)
	attrs := testAttrs()
	var rs []Route
	for i := 0; i < 1000; i++ {
		net := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 50, byte(i >> 8), byte(i)}), 32)
		rs = append(rs, Route{Net: net, Attrs: attrs, Src: src})
	}
	g.Add(rs)
	if g.EncodeCalls != 1 {
		t.Fatalf("EncodeCalls = %d, want 1", g.EncodeCalls)
	}
	for i := 1; i < members; i++ {
		if len(got[i]) != len(got[0]) {
			t.Fatalf("member %d got %d bufs, member 0 got %d", i, len(got[i]), len(got[0]))
		}
		for j := range got[i] {
			if !bytes.Equal(got[i][j], got[0][j]) {
				t.Fatalf("member %d buf %d differs from member 0", i, j)
			}
		}
	}
	// The packed encode must respect the message size limit.
	for _, bufs := range got {
		for _, buf := range bufs {
			rest := buf
			for len(rest) > 0 {
				n, _, err := HeaderInfo(rest)
				if err != nil {
					t.Fatal(err)
				}
				if n > maxMsgLen {
					t.Fatalf("message of %d bytes exceeds limit", n)
				}
				rest = rest[n:]
			}
		}
	}
	if g.MemberAnnouncedCount(handles[0]) != 1000 {
		t.Fatalf("announced %d", g.MemberAnnouncedCount(handles[0]))
	}
}
