package main

import (
	"fmt"
	"net/netip"
	"time"

	"xorp/internal/bgp"
	"xorp/internal/eventloop"
)

// routeServer is the BGP stage network alone: one PeerIn per client →
// Decision → Fanout → one shared FilterBank → GroupOut over an interned
// AttrPool, on one loop driven from the benchmark goroutine. RIB, FEA,
// fwd and xipc do nothing here.
type routeServer struct {
	loop    *eventloop.Loop
	peers   []rsPeer
	handles []*bgp.PeerHandle
	ins     []*bgp.PeerIn
	group   *bgp.GroupOut

	memberBytes []int64   // bytes delivered to each member so far
	slotBytes   [][]int64 // [slot][member] bytes of the slot's first txn
	slotSeen    []bool
	before      []int64 // scratch: memberBytes at the start of a txn
	msgs        []*bgp.UpdateMsg
	visible     int // routes each member is told between transactions
	fails       int
}

func setupRouteServer(cfg *config, d *digest) (instance, error) {
	peers, slots := cfg.sizes.rsPeers, cfg.sizes.rsSlots
	rs := &routeServer{
		loop:        eventloop.New(nil),
		peers:       generateRouteServer(cfg.seed, peers, slots, d),
		memberBytes: make([]int64, peers),
		slotBytes:   make([][]int64, slots),
		slotSeen:    make([]bool, slots),
		before:      make([]int64, peers),
		msgs:        make([]*bgp.UpdateMsg, peers),
		visible:     (peers - 1) * slots * rsNLRI,
	}
	for slot := range rs.slotBytes {
		rs.slotBytes[slot] = make([]int64, peers)
	}
	dec := bgp.NewDecision("decision")
	fan := bgp.NewFanout("fanout", rs.loop)
	bgp.Plumb(dec, fan)
	pool := bgp.NewAttrPool()
	outBank := bgp.NewFilterBank("out-filter(group:rs)",
		bgp.FilterEBGPExport(rsLocalAS, netip.MustParseAddr("192.0.2.1")))
	rs.group = bgp.NewGroupOut("rs")
	bgp.Plumb(outBank, rs.group)
	fan.AddGroupBranch("group:rs", outBank)
	for i := range rs.peers {
		h := &bgp.PeerHandle{Name: rs.peers[i].name, Addr: rs.peers[i].addr, AS: rs.peers[i].as}
		in := bgp.NewPeerIn(rs.loop, h, pool)
		resolver := bgp.NewNexthopResolver("nexthop("+h.Name+")", &bgp.StaticMetricSource{})
		bgp.Plumb(in, resolver)
		if err := rs.group.AddMember(h, bgp.GroupSenderFunc(func(buf []byte) {
			rs.memberBytes[i] += int64(len(buf))
		})); err != nil {
			return nil, err
		}
		dec.AddParent(resolver)
		rs.handles, rs.ins = append(rs.handles, h), append(rs.ins, in)
	}
	for slot := 0; slot < slots; slot++ {
		rs.receive(slot, false, nil)
	}
	if rs.checkCounts(rs.visible); rs.fails > 0 {
		return nil, fmt.Errorf("preload: %d members miss routes", rs.fails)
	}
	return rs, nil
}

// receive has every client send its UPDATE for slot (the withdrawal or
// the announcement), decoded from wire bytes, and drains the loop.
func (rs *routeServer) receive(slot int, withdraw bool, rec *recorder) {
	sp := rec.begin(spanDecode)
	for p := range rs.peers {
		wire := rs.peers[p].announce[slot]
		if withdraw {
			wire = rs.peers[p].withdraw[slot]
		}
		m, err := bgp.DecodeMessage(wire)
		if err != nil || m.Update == nil {
			rs.fails++
			m = &bgp.Message{Update: &bgp.UpdateMsg{}}
		}
		rs.msgs[p] = m.Update
	}
	rec.end(sp)
	rs.loop.Dispatch(func() {
		sp := rec.begin(spanPeerIn)
		for p, in := range rs.ins {
			in.ReceiveUpdate(rs.msgs[p], rsLocalAS)
		}
		rec.end(sp)
	})
	sp = rec.begin(spanDrain)
	rs.loop.RunPending()
	rec.end(sp)
}

// checkCounts counts one failure per route a member has been told too
// many or too few.
func (rs *routeServer) checkCounts(want int) {
	for _, h := range rs.handles {
		if got := rs.group.MemberAnnouncedCount(h); got != want {
			rs.fails += max(got-want, want-got)
		}
	}
}

func (rs *routeServer) opsPerTxn() int { return 2 * len(rs.peers) * rsNLRI }

func (rs *routeServer) txn(i int, rec *recorder) (time.Duration, time.Duration) {
	slot := i % len(rs.slotBytes)
	copy(rs.before, rs.memberBytes)
	root := rec.beginTxn(i)

	t0 := time.Now()
	rs.receive(slot, true, rec)
	timed := time.Since(t0)
	sp := rec.begin(spanCheck)
	rs.checkCounts(rs.visible - (len(rs.peers)-1)*rsNLRI)
	rec.end(sp)

	t0 = time.Now()
	rs.receive(slot, false, rec)
	timed += time.Since(t0)
	sp = rec.begin(spanCheck)
	rs.checkCounts(rs.visible)
	// The bytes a member receives for a slot must repeat every time the
	// slot comes round.
	if !rs.slotSeen[slot] {
		rs.slotSeen[slot] = true
		for m := range rs.memberBytes {
			rs.slotBytes[slot][m] = rs.memberBytes[m] - rs.before[m]
		}
	}
	for m := range rs.memberBytes {
		if got := rs.memberBytes[m] - rs.before[m]; got != rs.slotBytes[slot][m] || got == 0 {
			rs.fails++
		}
	}
	rec.end(sp)
	rec.end(root)
	return timed, timed
}

func (rs *routeServer) failures() int       { return rs.fails }
func (rs *routeServer) snapshotGen() uint64 { return 0 }
func (rs *routeServer) trace(*recorder)     {}
func (rs *routeServer) close()              {}
