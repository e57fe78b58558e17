package bgp

import (
	"fmt"
	"net/netip"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"xorp/internal/core"
	"xorp/internal/eventloop"
)

// runSink is a terminal stage that counts what it is sent and checks each
// run it is handed: a run of more than one route must have no capacity past
// its end (a receiver appending to it would write over the next run), and,
// when want is set, must be want.
type runSink struct {
	core.Base[Route]
	want                           []Route
	runs, routes, delRuns, deletes int
	bad                            string
}

func (s *runSink) Add(run []Route) {
	s.runs++
	s.routes += len(run)
	switch {
	case s.bad != "":
	case len(run) > 1 && cap(run) != len(run):
		s.bad = fmt.Sprintf("run %d: %d routes with capacity %d", s.runs, len(run), cap(run))
	case s.want != nil && len(run) > 1 && !slices.Equal(run, s.want):
		s.bad = fmt.Sprintf("run %d: %v, want %v", s.runs, run, s.want)
	}
}
func (s *runSink) Replace(old, new Route) { s.routes++ }
func (s *runSink) Delete(run []Route) {
	s.delRuns++
	s.deletes += len(run)
}

// TestFanoutRunsAllocateNothing: a warm PeerIn → resolver → Decision →
// Fanout network with two branches takes 8- and 256-route runs, and their
// withdrawals, without allocating. The fanout queues each run in storage it
// reuses and hands every branch a subslice of it, capped at its end; the
// entry that says where stays 128 bytes, and a Route 56.
func TestFanoutRunsAllocateNothing(t *testing.T) {
	// A queued change is two routes and the run's place in the storage;
	// holding the run's slice instead made it 144. The PeerIn's sole mark
	// lives in a Route's padding.
	if size := unsafe.Sizeof(fanoutEntry{}); size != 128 {
		t.Errorf("a fanout entry is %d bytes, want 128", size)
	}
	if size := unsafe.Sizeof(Route{}); size != 56 {
		t.Errorf("a Route is %d bytes, want 56", size)
	}
	for _, n := range []int{8, 256} {
		loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
		dec, fan := NewDecision("decision"), NewFanout("fanout", loop)
		Plumb(dec, fan)
		a, b := &runSink{}, &runSink{}
		fan.AddGroupBranch("a", a)
		fan.AddGroupBranch("b", b)
		h := testPeer("p1", "10.0.0.1", 65001, false)
		in := NewPeerIn(loop, h, NewAttrPool())
		res := NewNexthopResolver("nexthop(p1)", &StaticMetricSource{})
		Plumb(in, res)
		dec.AddParent(res)

		ann := &UpdateMsg{Attrs: attrsVia("10.0.0.1", 65001), NLRI: ownNets(7, n)}
		wd := &UpdateMsg{Withdrawn: ann.NLRI}
		cycles := 0
		cycle := func() {
			in.ReceiveUpdate(ann, 65000)
			loop.RunPending()
			in.ReceiveUpdate(wd, 65000)
			loop.RunPending()
			cycles++
		}
		cycle() // warm: tables, queue and run storage at size
		if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
			t.Errorf("%d-route runs: an announce and withdrawal through the fanout cost %.2f allocations, want 0", n, allocs)
		}
		for name, s := range map[string]*runSink{"a": a, "b": b} {
			if s.bad != "" {
				t.Fatalf("%d-route runs, branch %s: %s", n, name, s.bad)
			}
			if s.routes != cycles*n || s.deletes != cycles*n {
				t.Fatalf("%d-route runs, branch %s: %d routes and %d deletes over %d cycles, want %d of each a cycle",
					n, name, s.routes, s.deletes, cycles, n)
			}
		}
		if held, _ := fan.HeldRuns(); len(held) != 0 {
			t.Fatalf("%d-route runs: the drained fanout holds %d routes", n, len(held))
		}
	}
}

// TestFanoutRunStorageBounded: the run storage follows the queue. Two
// branches take turns being busy, the one released catching up while the
// other stalls behind the entry just added, so the queue is never empty at
// an Add; across 10,000 8-route runs, runs of one and deletes the storage
// always holds exactly the routes of the entries still queued, and no slot
// it freed still points at an attribute set or a holder. Once both branches
// drain, it holds none.
func TestFanoutRunStorageBounded(t *testing.T) {
	loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
	f := NewFanout("fanout", loop)
	src, attrs := testPeer("p1", "10.0.0.1", 65001, false), attrsVia("10.0.0.1", 65001)
	run := make([]Route, 8)
	for i, net := range ownNets(1, len(run)) {
		run[i] = Route{Net: net, Attrs: attrs, Src: src}
	}
	sinks := map[string]*runSink{"a": {want: run}, "b": {want: run}}
	for name, s := range sinks {
		f.AddGroupBranch(name, s)
	}
	other := map[string]string{"a": "b", "b": "a"}

	var stored []int // routes each entry put in the storage, in push order
	check := func(step int) {
		t.Helper()
		want := 0
		for _, n := range stored[len(stored)-f.QueueLen():] {
			want += n
		}
		held, spare := f.HeldRuns()
		if len(held) != want {
			t.Fatalf("step %d: the storage holds %d routes for %d queued entries that need %d", step, len(held), f.QueueLen(), want)
		}
		for i, r := range spare {
			if r.Attrs != nil || r.Src != nil {
				t.Fatalf("step %d: freed slot %d still holds %v from %v", step, len(held)+i, r.Attrs, r.Src)
			}
		}
	}

	const steps = 10000
	busy := "a"
	f.SetBusy(busy, true)
	for i := 0; i < steps; i++ {
		swap := i%16 == 15
		if swap {
			f.SetBusy(other[busy], true)
		}
		if i > 0 && f.QueueLen() == 0 {
			t.Fatalf("step %d: the queue is empty at an Add", i)
		}
		switch {
		case i%5 == 4:
			f.Delete(run[:1])
			stored = append(stored, 0)
		case i%7 == 6:
			f.Add(run[:1]) // rides in the entry
			stored = append(stored, 0)
		default:
			f.Add(run)
			stored = append(stored, len(run))
		}
		if swap {
			f.SetBusy(busy, false)
			busy = other[busy]
		}
		loop.RunPending()
		check(i)
	}
	f.SetBusy(busy, false)
	loop.RunPending()
	if f.QueueLen() != 0 {
		t.Fatalf("%d entries queued after both branches drained", f.QueueLen())
	}
	check(steps)

	want := 0
	for _, n := range stored {
		want += max(n, 1)
	}
	want -= steps / 5 // the deletes
	for name, s := range sinks {
		if s.bad != "" {
			t.Fatalf("branch %s: %s", name, s.bad)
		}
		if s.routes != want || s.deletes != steps/5 {
			t.Fatalf("branch %s was sent %d routes and %d deletes, want %d and %d", name, s.routes, s.deletes, want, steps/5)
		}
	}
}

// runRecorder passes every message on and records the length of each run
// it forwards: adds in runs, withdrawals in deletes.
type runRecorder struct {
	core.Base[Route]
	runs, deletes []int
}

func (s *runRecorder) Add(run []Route) {
	s.runs = append(s.runs, len(run))
	s.Next().Add(run)
}
func (s *runRecorder) Replace(old, new Route) { s.Next().Replace(old, new) }
func (s *runRecorder) Delete(run []Route) {
	s.deletes = append(s.deletes, len(run))
	s.Next().Delete(run)
}
func (s *runRecorder) Lookup(net netip.Prefix, r *Route) bool {
	return s.LookupParent(net, r)
}

// TestResolverDrainsRuns: an 8-NLRI UPDATE on a nexthop the resolver has no
// answer for waits there, one queued add per net. When the answer comes,
// the eight adds leave as one run: it reaches the stage above the decision
// process whole, and the fanout as one queued entry, which a branch takes
// as one run.
func TestResolverDrainsRuns(t *testing.T) {
	loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
	dec, fan := NewDecision("decision"), NewFanout("fanout", loop)
	Plumb(dec, fan)
	out := &runSink{}
	fan.AddGroupBranch("a", out)
	fan.SetBusy("a", true)
	in := NewPeerIn(loop, testPeer("p1", "10.0.0.1", 65001, false), NewAttrPool())
	src := &fakeMetricSource{}
	res, rec := NewNexthopResolver("nexthop(p1)", src), &runRecorder{}
	Plumb(in, res, rec)
	dec.AddParent(rec)

	in.ReceiveUpdate(&UpdateMsg{Attrs: attrsVia("10.0.0.1", 65001), NLRI: ownNets(7, 8)}, 65000)
	loop.RunPending()
	if res.PendingOps() != 8 || len(rec.runs) != 0 {
		t.Fatalf("before the answer: %d ops queued and runs %v sent, want 8 and none", res.PendingOps(), rec.runs)
	}
	src.answer(mustA("10.0.0.1"), NexthopInfo{Resolvable: true, Metric: 10, Covering: mustP("10.0.0.0/24")})
	loop.RunPending()
	if !slices.Equal(rec.runs, []int{8}) || res.PendingOps() != 0 {
		t.Fatalf("after the answer: runs %v sent with %d ops left, want one run of 8 and none", rec.runs, res.PendingOps())
	}
	if n := fan.QueueLen(); n != 1 {
		t.Fatalf("the fanout queued %d entries, want 1", n)
	}
	fan.SetBusy("a", false)
	loop.RunPending()
	if out.runs != 1 || out.routes != 8 || out.bad != "" {
		t.Fatalf("the branch took %d runs of %d routes in all (%s), want one of 8", out.runs, out.routes, out.bad)
	}
}

// TestSyncAnswerKeepsTheRun: a 64-NLRI UPDATE on a nexthop the resolver has
// not seen, under a source that answers inside the query
// (StaticMetricSource). The first route waits for the answer and is
// released inside the resolver's call, where the rest of the run joins it:
// the UPDATE reaches the decision process as one run, and each member of
// the group it fans out to gets one UPDATE.
func TestSyncAnswerKeepsTheRun(t *testing.T) {
	const n = 64
	loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
	dec, fan := NewDecision("decision"), NewFanout("fanout", loop)
	Plumb(dec, fan)
	g := NewGroupOut("rs")
	bank := NewFilterBank("out-filter(group:rs)", FilterEBGPExport(65000, mustA("192.0.2.1")))
	Plumb(bank, g)
	fan.AddGroupBranch("group:rs", bank)
	sent := make([]int, 3)
	for i := range sent {
		h := testPeer(fmt.Sprintf("m%d", i), fmt.Sprintf("10.0.1.%d", i+1), uint16(65010+i), false)
		if err := g.AddMember(h, GroupSenderFunc(func([]byte) { sent[i]++ })); err != nil {
			t.Fatal(err)
		}
	}
	in := NewPeerIn(loop, testPeer("p1", "10.0.0.1", 65001, false), NewAttrPool())
	res, rec := NewNexthopResolver("nexthop(p1)", &StaticMetricSource{}), &runRecorder{}
	Plumb(in, res, rec)
	dec.AddParent(rec)

	in.ReceiveUpdate(&UpdateMsg{Attrs: attrsVia("10.0.0.1", 65001), NLRI: ownNets(7, n)}, 65000)
	loop.RunPending()
	if !slices.Equal(rec.runs, []int{n}) || res.PendingOps() != 0 {
		t.Fatalf("the UPDATE reached the decision process as runs %v with %d ops left queued, want one run of %d", rec.runs, res.PendingOps(), n)
	}
	if !slices.Equal(sent, []int{1, 1, 1}) || g.AnnouncedCount() != n {
		t.Fatalf("members were sent %v UPDATEs for %d routes announced, want one each for %d", sent, g.AnnouncedCount(), n)
	}
}

// TestWithdrawRuns: a 64-prefix withdraw UPDATE is one run all the way
// down, as an announcement is. It reaches the stage above the decision
// process as one Delete run, the fanout as one queued entry, a branch busy
// meanwhile as one run once released, and the RIB as one delete_routes4 of
// 64.
func TestWithdrawRuns(t *testing.T) {
	const n = 64
	loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
	dec, fan := NewDecision("decision"), NewFanout("fanout", loop)
	Plumb(dec, fan)
	out := &runSink{}
	fan.AddGroupBranch("a", out)
	client := &recClient{}
	fan.AddGroupBranch("rib", newRIBSink(NewProcess(loop, Config{AS: 65000, BGPID: mustA("10.0.0.254")}, client, nil)))
	in := NewPeerIn(loop, testPeer("p1", "10.0.0.1", 65001, false), NewAttrPool())
	res, rec := NewNexthopResolver("nexthop(p1)", &StaticMetricSource{}), &runRecorder{}
	Plumb(in, res, rec)
	dec.AddParent(rec)

	nets := ownNets(7, n)
	in.ReceiveUpdate(&UpdateMsg{Attrs: attrsVia("10.0.0.1", 65001), NLRI: nets}, 65000)
	loop.RunPending()
	if out.routes != n || len(client.log) == 0 {
		t.Fatalf("the announcement reached the branch as %d routes and the RIB as %d runs", out.routes, len(client.log))
	}
	fan.SetBusy("a", true)
	client.log = nil

	in.ReceiveUpdate(&UpdateMsg{Withdrawn: nets}, 65000)
	loop.RunPending()
	if !slices.Equal(rec.deletes, []int{n}) {
		t.Fatalf("the withdrawal reached the decision process as runs %v, want one of %d", rec.deletes, n)
	}
	if q := fan.QueueLen(); q != 1 {
		t.Fatalf("the fanout queued %d entries, want 1", q)
	}
	if len(client.log) != 1 || len(strings.Fields(client.log[0])) != 2+n || !strings.HasPrefix(client.log[0], "delete_routes4 ebgp ") {
		t.Fatalf("the RIB was sent %d runs (%q), want one delete_routes4 of %d", len(client.log), client.log, n)
	}
	fan.SetBusy("a", false)
	loop.RunPending()
	if out.delRuns != 1 || out.deletes != n || fan.QueueLen() != 0 {
		t.Fatalf("the released branch took %d delete runs of %d routes in all (%d entries left), want one of %d",
			out.delRuns, out.deletes, fan.QueueLen(), n)
	}
}
