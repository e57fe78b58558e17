package telemetry

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Stage is one point of a route's life a Tracer can stamp: the eight §8.2
// profile points, plus the two only the tracer has (the decision and the
// forwarding-snapshot publish), in pipeline order. One int64 per stage, so
// a trace never allocates per stage.
type Stage int

const (
	// StagePeerIn (route_ribin): the route entered BGP's peer-in table, or
	// was withdrawn from it.
	StagePeerIn Stage = iota
	// StageDecision: the decision process emitted the route downstream.
	StageDecision
	// StageQueuedRIB (route_queued_rib): taken off the fanout for the RIB.
	StageQueuedRIB
	// StageSentRIB (route_sent_rib): handed to the transport to the RIB.
	StageSentRIB
	// StageRIBIn (route_arrive_rib): entered the RIB's origin tables.
	StageRIBIn
	// StageQueuedFEA (route_queued_fea): left the RIB's stage network.
	StageQueuedFEA
	// StageSentFEA (route_sent_fea): handed to the RIB's FIB client.
	StageSentFEA
	// StageArriveFEA (route_arrive_fea): arrived at the FEA.
	StageArriveFEA
	// StageFIBApply (route_enter_kernel): about to be written to the
	// forwarding backend, individually or in a batch.
	StageFIBApply
	// StageSnapPub: the forwarding snapshot holding the change was
	// published (the atomic pointer flip data-plane workers observe). This
	// closes the trace.
	StageSnapPub

	// NumStages is the trace record width.
	NumStages
)

// stages is the one table of stage names: the profile/0.1 point name, and
// for the eight §8.2 points the paper's row label (Figures 10–12).
var stages = [NumStages]struct{ name, label string }{
	StagePeerIn:    {"route_ribin", "Entering BGP"},
	StageDecision:  {"route_decision", ""},
	StageQueuedRIB: {"route_queued_rib", "Queued for transmission to the RIB"},
	StageSentRIB:   {"route_sent_rib", "Sent to RIB"},
	StageRIBIn:     {"route_arrive_rib", "Arriving at the RIB"},
	StageQueuedFEA: {"route_queued_fea", "Queued for transmission to the FEA"},
	StageSentFEA:   {"route_sent_fea", "Sent to the FEA"},
	StageArriveFEA: {"route_arrive_fea", "Arriving at FEA"},
	StageFIBApply:  {"route_enter_kernel", "Entering kernel"},
	StageSnapPub:   {"route_snap_pub", ""},
}

// String returns the stage's profile point name.
func (s Stage) String() string { return stages[s].name }

// Label returns the paper's row label of a §8.2 point, "" for the stages
// only the tracer has.
func (s Stage) Label() string { return stages[s].label }

// RouteTrace is one pass of a route through the pipeline: one
// unix-nanosecond stamp per stage (0 = the pass never reached that stage,
// e.g. a decision loser), and which of the stamps were deletes.
type RouteTrace struct {
	Net netip.Prefix
	T   [NumStages]int64
	Del uint16 // bit s set: the stamp at stage s was a delete
}

// forget zeroes stage s, reporting whether the trace is then empty.
func (r *RouteTrace) forget(s Stage) bool {
	r.T[s], r.Del = 0, r.Del&^(1<<s)
	return r.T == [NumStages]int64{}
}

// maxOpen bounds the open-trace map; maxDone bounds retained closed
// traces. Past either bound new records are dropped (and counted), so an
// unharvested tracer cannot grow without bound.
const (
	maxOpen = 1 << 16
	maxDone = 1 << 17
)

// Tracer is a process's one probe (§8.2): each stage is switched on alone,
// and every stamp of a switched-on stage is kept, correlated by prefix
// into RouteTraces. The hot-path contract is the paper's: call sites guard
// with On(stage) — one nil check plus one atomic load, zero allocations —
// so a disabled stage costs nothing. Stamps are safe from any goroutine:
// the pipeline's stages run on different event loops (BGP, RIB, FEA) and
// the snapshot publish on whichever goroutine applies the batch.
type Tracer struct {
	on  atomic.Uint32 // bit s set: stage s is stamped
	now func() int64

	mu      sync.Mutex
	open    map[netip.Prefix]*RouteTrace
	done    []RouteTrace
	dropped uint64 // records lost to the maxOpen/maxDone bounds
}

// NewTracer returns a tracer with every stage off, stamping wall-clock
// time.
func NewTracer() *Tracer {
	return &Tracer{now: func() int64 { return time.Now().UnixNano() }}
}

// Enable switches every stage on. Safe from any goroutine.
func (t *Tracer) Enable() { t.on.Store(1<<NumStages - 1) }

// Enabled reports whether any stage is on. Nil-safe.
func (t *Tracer) Enabled() bool { return t != nil && t.on.Load() != 0 }

// On reports whether stage s is stamped: the guard every trace point in
// the pipeline takes. Nil-safe, so code without a tracer wired pays one
// nil check.
func (t *Tracer) On(s Stage) bool { return t != nil && t.on.Load()&(1<<s) != 0 }

// Stamp records that an add of net reached stage s. Callers MUST guard
// with On(s) (or, for a tracer Enable switched on whole, Enabled).
func (t *Tracer) Stamp(s Stage, net netip.Prefix) { t.StampOp(s, net, false) }

// StampOp records that an add, or with del a delete, of net reached stage
// s. Callers MUST guard with On(s).
func (t *Tracer) StampOp(s Stage, net netip.Prefix, del bool) {
	ts := t.now()
	t.mu.Lock()
	t.stamp(s, net, del, ts)
	t.mu.Unlock()
}

// StampBatch records every (prefix, delete) ops yields reaching stage s
// at one timestamp: the batch points (a RIB run, an FEA batch, a snapshot
// publish), where the whole batch moves at once. Callers MUST guard with
// On(s).
func (t *Tracer) StampBatch(s Stage, ops func(yield func(net netip.Prefix, del bool))) {
	ts := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	ops(func(net netip.Prefix, del bool) { t.stamp(s, net, del, ts) })
}

// stamp files one record; t.mu held. A prefix with no open trace opens one
// at whichever stage first sees it. A stage the open trace already holds
// is a new pass of the route (a re-announcement, a withdrawal after a
// decision loss), so the open trace is closed and a fresh one started: a
// trace never spans two announcements. StageSnapPub closes the trace.
func (t *Tracer) stamp(s Stage, net netip.Prefix, del bool, ts int64) {
	tr := t.open[net]
	if tr != nil && tr.T[s] != 0 {
		t.close(tr)
		tr = nil
	}
	if tr == nil {
		if len(t.open) >= maxOpen {
			t.dropped++
			return
		}
		if t.open == nil {
			t.open = make(map[netip.Prefix]*RouteTrace)
		}
		tr = &RouteTrace{Net: net}
		t.open[net] = tr
	}
	tr.T[s] = ts
	if del {
		tr.Del |= 1 << s
	}
	if s == StageSnapPub {
		t.close(tr)
	}
}

// close moves tr from the open map to the closed list; t.mu held.
func (t *Tracer) close(tr *RouteTrace) {
	delete(t.open, tr.Net)
	if len(t.done) >= maxDone {
		t.dropped++
		return
	}
	t.done = append(t.done, *tr)
}

// Take returns the traces closed so far and resets the tracer's closed
// list (open traces are kept in flight).
func (t *Tracer) Take() []RouteTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.done
	t.done = nil
	return out
}

// Dropped returns how many records were lost to the retention bounds.
func (t *Tracer) Dropped() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// records renders stage s's stamps, open and closed, oldest first, in the
// paper's record format: "route_ribin 1097173928 664085 add 10.0.1.0/24".
func (t *Tracer) records(s Stage) []string {
	t.mu.Lock()
	var hits []RouteTrace
	for i := range t.done {
		if t.done[i].T[s] != 0 {
			hits = append(hits, t.done[i])
		}
	}
	for _, tr := range t.open {
		if tr.T[s] != 0 {
			hits = append(hits, *tr)
		}
	}
	t.mu.Unlock()
	sort.SliceStable(hits, func(i, j int) bool {
		a, b := &hits[i], &hits[j]
		return a.T[s] < b.T[s] || a.T[s] == b.T[s] && a.Net.Addr().Less(b.Net.Addr())
	})
	out := make([]string, len(hits))
	for i := range hits {
		verb := "add"
		if hits[i].Del&(1<<s) != 0 {
			verb = "delete"
		}
		when := time.Unix(0, hits[i].T[s])
		out[i] = fmt.Sprintf("%s %d %06d %s %v", s, when.Unix(), when.Nanosecond()/1000, verb, hits[i].Net)
	}
	return out
}

// clear drops stage s's stamps, and with them every trace left empty.
func (t *Tracer) clear(s Stage) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for net, tr := range t.open {
		if tr.forget(s) {
			delete(t.open, net)
		}
	}
	kept := t.done[:0]
	for _, tr := range t.done {
		if !tr.forget(s) {
			kept = append(kept, tr)
		}
	}
	t.done = kept
}

// ProfileView serves a process's tracer as profile/0.1 (it implements
// xif.ProfileServer): a point is a stage, enable and disable switch it
// alone, and get_entries renders its stamps as the paper's records. The
// view calls its func per request, so the binding follows a tracer a
// harness swaps in after the process registered its XRLs.
type ProfileView func() *Tracer

// stageNamed resolves a profile point name.
func stageNamed(name string) (Stage, error) {
	for s := Stage(0); s < NumStages; s++ {
		if stages[s].name == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("telemetry: no profile point %q", name)
}

// ProfileEnable switches one point on.
func (v ProfileView) ProfileEnable(name string) error {
	s, err := stageNamed(name)
	if err == nil {
		v().on.Or(1 << s)
	}
	return err
}

// ProfileDisable switches one point off; its records are kept.
func (v ProfileView) ProfileDisable(name string) error {
	s, err := stageNamed(name)
	if err == nil {
		v().on.And(^uint32(1 << s))
	}
	return err
}

// ProfileClear drops one point's records.
func (v ProfileView) ProfileClear(name string) error {
	s, err := stageNamed(name)
	if err == nil {
		v().clear(s)
	}
	return err
}

// ProfileList names every point, in pipeline order.
func (v ProfileView) ProfileList() (string, error) {
	names := make([]string, NumStages)
	for s := range names {
		names[s] = stages[s].name
	}
	return strings.Join(names, " "), nil
}

// ProfileEntries returns one point's records.
func (v ProfileView) ProfileEntries(name string) ([]string, error) {
	s, err := stageNamed(name)
	if err != nil {
		return nil, err
	}
	return v().records(s), nil
}
