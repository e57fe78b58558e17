package bgp

import (
	"math"
	"net/netip"
	"time"

	"xorp/internal/core"
	"xorp/internal/eventloop"
	"xorp/internal/trie"
)

// DampingStage implements route-flap damping (RFC 2439 style) as one more
// pluggable pipeline stage — the paper's §8.3 case study: "we can do so
// efficiently and simply by adding another stage to the BGP pipeline. The
// code does not impact other stages." Suppression and reuse are fully
// event-driven: reuse is a one-shot timer computed from the decay
// half-life, never a periodic scanner.
type DampingStage struct {
	core.Base[Route]
	loop *eventloop.Loop

	// Tuning (defaults follow common vendor practice).
	Penalty       float64       // added per flap
	SuppressAbove float64       // suppress when penalty exceeds this
	ReuseBelow    float64       // reuse when penalty decays below this
	HalfLife      time.Duration // exponential decay half-life
	MaxPenalty    float64       // penalty ceiling

	state *trie.Table[*dampState]
}

// dampState tracks one prefix's flap history.
type dampState struct {
	penalty                  float64
	lastUpdate               time.Time
	suppressed               bool
	current                  Route // latest route from upstream, if hasCurrent (else withdrawn)
	announced                Route // what downstream believes, if hasAnnounced (else nothing)
	hasCurrent, hasAnnounced bool
	reuseTimer               *eventloop.Timer
}

// NewDampingStage returns a damping stage with standard parameters.
func NewDampingStage(name string, loop *eventloop.Loop) *DampingStage {
	return &DampingStage{
		Base:          newBase(name),
		loop:          loop,
		Penalty:       1000,
		SuppressAbove: 2000,
		ReuseBelow:    750,
		HalfLife:      15 * time.Minute,
		MaxPenalty:    12000,
	}
}

func (d *DampingStage) ensureState(net netip.Prefix) *dampState {
	if d.state == nil {
		d.state = trie.New[*dampState]()
	}
	if s, ok := d.state.Get(net); ok {
		return s
	}
	s := &dampState{lastUpdate: d.loop.Now()}
	d.state.Upsert(net, s)
	return s
}

// decay brings the penalty up to date.
func (s *dampState) decay(now time.Time, halfLife time.Duration) {
	if s.penalty > 0 {
		dt := now.Sub(s.lastUpdate)
		s.penalty *= math.Exp2(-float64(dt) / float64(halfLife))
	}
	s.lastUpdate = now
}

// flap charges one flap's penalty.
func (d *DampingStage) flap(s *dampState) {
	s.decay(d.loop.Now(), d.HalfLife)
	s.penalty += d.Penalty
	if s.penalty > d.MaxPenalty {
		s.penalty = d.MaxPenalty
	}
}

// reconcile compares what downstream believes with the current route,
// honouring suppression, and emits the difference through em.
func (d *DampingStage) reconcile(net netip.Prefix, s *dampState, em *core.Emitter[Route]) {
	want, wanted := s.current, s.hasCurrent && !s.suppressed
	if !wanted {
		want = Route{}
	}
	// Recorded before it is emitted: downstream looks back up through this
	// stage while it handles the message.
	have, had := s.announced, s.hasAnnounced
	s.announced, s.hasAnnounced = want, wanted
	switch {
	case !had && wanted:
		em.Add(want)
	case had && !wanted:
		em.Delete(have)
	case had && wanted && !SameRoute(&have, &want):
		em.Replace(have, want)
	}
	if !s.hasCurrent && !s.suppressed && s.penalty < d.ReuseBelow {
		// Fully withdrawn, nothing pending: garbage-collect.
		if s.reuseTimer != nil {
			s.reuseTimer.Cancel()
		}
		d.state.Delete(net)
	}
}

// evaluate applies the suppress/reuse thresholds after a state change.
func (d *DampingStage) evaluate(net netip.Prefix, s *dampState, em *core.Emitter[Route]) {
	if !s.suppressed && s.penalty > d.SuppressAbove {
		s.suppressed = true
	}
	if s.suppressed {
		d.scheduleReuse(net, s)
	}
	d.reconcile(net, s, em)
}

// scheduleReuse arms a one-shot timer for the instant the decayed penalty
// crosses the reuse threshold — event-driven damping, no scanner.
func (d *DampingStage) scheduleReuse(net netip.Prefix, s *dampState) {
	if s.reuseTimer != nil {
		s.reuseTimer.Cancel()
	}
	// penalty * 2^(-t/halfLife) = ReuseBelow  =>  t = halfLife * log2(p/reuse)
	if s.penalty <= d.ReuseBelow {
		s.suppressed = false
		return
	}
	// One extra second of slack guarantees the decayed penalty is strictly
	// below the threshold when the timer fires (no zero-delay respins).
	t := time.Duration(float64(d.HalfLife)*math.Log2(s.penalty/d.ReuseBelow)) + time.Second
	s.reuseTimer = d.loop.OneShot(t, func() {
		s.decay(d.loop.Now(), d.HalfLife)
		if s.penalty <= d.ReuseBelow {
			s.suppressed = false
			em := d.Emitter()
			d.reconcile(net, s, &em)
			d.Release(&em)
		} else {
			d.scheduleReuse(net, s)
		}
	})
}

// Add implements Stage. Flap history is per prefix; the routes that pass
// go on as a run. A first announcement is not a flap; every later change
// — an attribute change, a withdrawal, a re-announcement — is.
func (d *DampingStage) Add(run []Route) { d.update(run, true) }

// Replace implements Stage.
func (d *DampingStage) Replace(_, new Route) { d.update([]Route{new}, true) }

// Delete implements Stage.
func (d *DampingStage) Delete(run []Route) { d.update(run, false) }

// update records each route of run as current (or withdrawn) and emits
// what that changes downstream.
func (d *DampingStage) update(run []Route, current bool) {
	em := d.Emitter()
	for _, r := range run {
		s := d.ensureState(r.Net)
		if s.hasCurrent || s.hasAnnounced || s.penalty > 0 {
			d.flap(s)
		}
		if s.current, s.hasCurrent = r, current; !current {
			s.current = Route{}
		}
		s.current.sole = false // it may leave later, when the mark is stale
		d.evaluate(r.Net, s, &em)
	}
	d.Release(&em)
}

// Lookup implements core.Table: suppressed prefixes answer nothing, consistent
// with the message stream.
func (d *DampingStage) Lookup(net netip.Prefix, r *Route) bool {
	if d.state != nil {
		if s, ok := d.state.Get(net); ok {
			*r = s.announced
			return s.hasAnnounced
		}
	}
	return d.LookupParent(net, r)
}
