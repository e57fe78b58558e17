package bgp

import (
	"net/netip"

	"xorp/internal/core"
	"xorp/internal/eventloop"
)

// fanoutEntry is one decision-process output queued for fanout. An OpAdd
// or OpDelete carries a run: its first route in new (an add) or old (a
// delete) and, when there is more than one, the n routes of the fanout's
// run storage from position off (the queue outlives the call that
// delivered the run, and the sender's buffer with it). Every entry records
// off, so the oldest queued bounds what is kept.
type fanoutEntry struct {
	op       core.Op
	n, off   uint32
	old, new Route
}

// Fanout is the fanout-queue stage of Figure 5: it duplicates the
// decision process's output to each peer's output branch and to the RIB
// branch. Changes are held in a single queue with one read cursor per
// branch (§5.1.1), so a slow peer delays only itself; queued changes are
// duplicated and specialized only at delivery time, after route selection
// but before per-peer output filtering.
type Fanout struct {
	core.Base[Route]
	loop *eventloop.Loop
	q    *core.FanoutQueue[fanoutEntry]

	// runs holds the queued adds' runs back to back, runs[0] at position
	// first; a position counts every route stored, modulo 2^32, so an
	// entry's off survives compaction. It keeps its capacity.
	runs  []Route
	first uint32
	one   [1]Route // where a run of one, riding in its entry, is delivered from

	branches      map[string]*fanoutBranch
	pumpScheduled bool
	pumpFn        func() // f.pump, bound once: Dispatch(f.pump) would allocate per pump
}

// fanoutBranch is one consumer: a peer group's output pipeline (a solo
// peer is a group of one) or the RIB branch.
type fanoutBranch struct {
	name   string
	peer   *PeerHandle // the one peer the branch will ever serve, else nil
	out    *GroupOut   // the pipeline's terminal group; nil for the RIB branch
	head   Stage       // first stage of the branch's pipeline
	reader *core.FanoutReader[fanoutEntry]
}

// NewFanout returns an empty fanout stage.
func NewFanout(name string, loop *eventloop.Loop) *Fanout {
	f := &Fanout{
		Base:     newBase(name),
		loop:     loop,
		q:        core.NewFanoutQueue[fanoutEntry](),
		branches: make(map[string]*fanoutBranch),
	}
	f.pumpFn = f.pump
	return f
}

// AddPeerBranch attaches the output pipeline of a group of one. Split
// horizon and the IBGP non-reflection rule are applied here, at
// duplication time and ahead of the branch's filter bank, so the routes a
// peer sent us cost its own branch nothing. The branch's lookups and
// replays come back up through the fanout.
func (f *Fanout) AddPeerBranch(name string, peer *PeerHandle, head Stage) {
	b := &fanoutBranch{name: name, peer: peer, head: head}
	b.reader = f.q.AddReader(func(e fanoutEntry) bool { return f.deliver(b, e) })
	for s := head; s != nil; s = s.Next() {
		if g, ok := s.(*GroupOut); ok {
			b.out, g.release = g, func() { f.SetBusy(name, false) }
		}
	}
	f.branches[name] = b
	core.Adopt[Route](f, head)
}

// AddGroupBranch attaches a pipeline that takes the decision stream whole:
// a peer group's shared filter bank, whose terminal GroupOut applies split
// horizon / the IBGP rule per member, or the RIB branch.
func (f *Fanout) AddGroupBranch(name string, head Stage) {
	f.AddPeerBranch(name, nil, head)
}

// RemoveBranch detaches a branch (peer deconfigured).
func (f *Fanout) RemoveBranch(name string) {
	if b, ok := f.branches[name]; ok {
		f.q.RemoveReader(b.reader)
		f.trimRuns()
		delete(f.branches, name)
		core.Adopt[Route](nil, b.head)
	}
}

// SetBusy flow-controls one branch (a peer whose transport is congested).
func (f *Fanout) SetBusy(name string, busy bool) {
	if b, ok := f.branches[name]; ok {
		b.reader.SetBusy(busy)
		if !busy {
			f.schedulePump()
		}
	}
}

// Backlog reports a branch's unconsumed queue length.
func (f *Fanout) Backlog(name string) int {
	if b, ok := f.branches[name]; ok {
		return b.reader.Backlog()
	}
	return 0
}

// sendable reports whether a route learned from src may be advertised to
// peer: not back to its originator (split horizon), and not from one IBGP
// peer to another (IBGP full-mesh rule, RFC 4271 §9.2.1).
func sendable(src, peer *PeerHandle) bool {
	if src == nil {
		return true // locally originated: goes everywhere
	}
	return src != peer && !(src.IBGP && peer.IBGP)
}

// deliver drives one queued change into a branch, screened first when
// the branch has a sole peer. A run is screened by its first route: run
// members share Src, the only route field sendable reads. A parked group's
// branch takes the change and does nothing: no member is there to tell.
func (f *Fanout) deliver(b *fanoutBranch, e fanoutEntry) bool {
	if b.out != nil && b.out.parked {
		return true
	}
	so, sn := e.op != core.OpAdd, e.op != core.OpDelete
	if b.peer != nil {
		so, sn = so && sendable(e.old.Src, b.peer), sn && sendable(e.new.Src, b.peer)
	}
	switch {
	case so && sn:
		b.head.Replace(e.old, e.new)
	case sn:
		b.head.Add(f.run(&e, e.new))
	case so:
		b.head.Delete(f.run(&e, e.old))
	}
	return true
}

// run returns the run e carries, first its first route: its stretch of the
// run storage, or a run of one riding in the entry.
func (f *Fanout) run(e *fanoutEntry, first Route) []Route {
	if e.n == 0 {
		f.one[0] = first
		return f.one[:]
	}
	i := e.off - f.first
	return f.runs[i : i+e.n : i+e.n]
}

// schedulePump coalesces pump work onto one queued event.
func (f *Fanout) schedulePump() {
	if f.pumpScheduled {
		return
	}
	f.pumpScheduled = true
	f.loop.Dispatch(f.pumpFn)
}

func (f *Fanout) pump() {
	f.pumpScheduled = false
	f.pumpAll()
}

// pumpAll pumps the queue, then lets go of the runs it no longer holds.
func (f *Fanout) pumpAll() {
	f.q.PumpAll()
	f.trimRuns()
}

// trimRuns drops the routes before the oldest entry still queued (all of
// them when none is) and clears the slots it frees, so the storage pins no
// attribute set or holder. No delivery pumps, so no run in delivery moves.
func (f *Fanout) trimRuns() {
	keep := f.first + uint32(len(f.runs))
	if f.q.Len() > 0 {
		keep = f.q.Head().off
	}
	if n := keep - f.first; n > 0 {
		m := copy(f.runs, f.runs[n:])
		clear(f.runs[m:])
		f.runs, f.first = f.runs[:m], keep
	}
}

// push queues e with its run, which the storage keeps past the call
// unless it is a run of one (that rides in the entry).
func (f *Fanout) push(e fanoutEntry, run []Route) {
	if len(run) > 1 {
		e.n = uint32(len(run))
		f.runs = append(f.runs, run...)
	}
	e.off = f.first + uint32(len(f.runs)) - e.n
	f.q.Push(e)
	f.schedulePump()
}

// Add implements Stage: the run is queued as one entry, so every branch
// pays one specialization (and one encode) per run.
func (f *Fanout) Add(run []Route) { f.push(fanoutEntry{op: core.OpAdd, new: run[0]}, run) }

// Replace implements Stage.
func (f *Fanout) Replace(old, new Route) {
	f.push(fanoutEntry{op: core.OpReplace, old: old, new: new}, nil)
}

// Delete implements Stage: queued as one entry, like Add.
func (f *Fanout) Delete(run []Route) { f.push(fanoutEntry{op: core.OpDelete, old: run[0]}, run) }

// Flush pumps the queue synchronously (tests and shutdown).
func (f *Fanout) Flush() { f.pumpAll() }

// Lookup implements core.Table, passing upstream to the decision process.
func (f *Fanout) Lookup(net netip.Prefix, r *Route) bool { return f.LookupParent(net, r) }

// walk replays the decision table to the branch holding from. The branch's
// backlog is delivered first, stalled or not, so the table is what the
// branch has been sent (the asker mutes whoever the replay is for); a
// group of one's table is screened as its deliveries are.
func (f *Fanout) walk(from Stage, fn func(Route) bool) {
	b := f.branchOf(from)
	d, ok := f.Parent().(walker)
	if b == nil || !ok {
		return
	}
	busy := b.reader.Busy()
	b.reader.SetBusy(false)
	f.pumpAll()
	b.reader.SetBusy(busy)
	d.walk(from, func(r Route) bool {
		return b.peer != nil && !sendable(r.Src, b.peer) || fn(r)
	})
}

// branchOf returns the branch whose pipeline s is part of, or nil.
func (f *Fanout) branchOf(s Stage) *fanoutBranch {
	for _, b := range f.branches {
		for h := b.head; h != nil; h = h.Next() {
			if h == s {
				return b
			}
		}
	}
	return nil
}
