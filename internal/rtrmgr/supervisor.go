package rtrmgr

import (
	"fmt"
	"sync"
	"time"

	"xorp/internal/eventloop"
	"xorp/internal/finder"
	"xorp/internal/xif"
)

// Process supervision: the rtrmgr watches Finder lifetime events for
// every class of the module table it assembled an instance of and
// respawns any that die, through the same setup and begin that NewRouter
// and Start use (router.go). XORP's rtrmgr restarts crashed processes and
// re-applies their slice of the configuration; combined with the RIB's
// stale-route retention (rib/graceful.go) a protocol crash keeps
// forwarding intact while the replacement process re-learns its routes —
// provided the dead one is dead: teardown closes its XRL router, its one
// road to the RIB and the network, before anything else.
//
// Respawns back off exponentially, and a process that keeps dying in
// quick succession is eventually abandoned with an alarm rather than
// respawned forever — a crash loop burns CPU and churns the RIB without
// converging, so giving up loudly is the safer failure mode.

// SupervisorConfig tunes respawn behaviour.
type SupervisorConfig struct {
	// InitialBackoff is the delay before the first respawn attempt
	// (default 100ms). Doubles per rapid death, capped at MaxBackoff
	// (default 5s).
	InitialBackoff time.Duration
	MaxBackoff     time.Duration
	// RapidWindow bounds what counts as a crash loop: a death within
	// this span of the previous one is "rapid" (default 10s). A death
	// after a longer healthy run resets the count and the backoff.
	RapidWindow time.Duration
	// MaxRapidDeaths is how many rapid deaths in a row are tolerated
	// before the supervisor gives up on the class (default 5).
	MaxRapidDeaths int
	// Alarm, if non-nil, is invoked (on the supervisor's loop) when a
	// class is abandoned: the crash loop needs an operator.
	Alarm func(class string, deaths int)
}

func (c *SupervisorConfig) applyDefaults() {
	if c.InitialBackoff <= 0 {
		c.InitialBackoff = 100 * time.Millisecond
	}
	if c.MaxBackoff < c.InitialBackoff {
		c.MaxBackoff = 5 * time.Second
		if c.MaxBackoff < c.InitialBackoff {
			c.MaxBackoff = c.InitialBackoff
		}
	}
	if c.RapidWindow <= 0 {
		c.RapidWindow = 10 * time.Second
	}
	if c.MaxRapidDeaths <= 0 {
		c.MaxRapidDeaths = 5
	}
}

// supervised is the per-class respawn state. Counters are guarded by
// Supervisor.mu so tests can read them from other goroutines; the
// scheduling fields (lastDeath, backoff) are only touched on the
// supervisor loop.
type supervised struct {
	mod *module

	lastDeath time.Time
	backoff   time.Duration
	rapid     int // consecutive deaths within RapidWindow

	deaths   int
	respawns int
	givenUp  bool
}

// Supervisor watches protocol process lifetimes and respawns the dead.
type Supervisor struct {
	r    *Router
	loop *eventloop.Loop
	cfg  SupervisorConfig

	mu    sync.Mutex
	procs map[string]*supervised
}

// EnableSupervision starts supervising the assembled processes (the
// module table's classes present in the configuration). The supervisor
// registers its own "rtrmgr" Finder target and watches all lifetime
// events; deaths — real crashes surfaced by liveness probing, or
// KillProcess in chaos tests — trigger a respawn of that process from its
// config block.
func (r *Router) EnableSupervision(cfg SupervisorConfig) (*Supervisor, error) {
	cfg.applyDefaults()
	xr := r.processRouter("rtrmgr")
	tgt := xif.NewTarget("rtrmgr", "rtrmgr")
	xr.AddTarget(tgt)
	if err := r.registerTarget(xr, tgt); err != nil {
		return nil, fmt.Errorf("rtrmgr: register supervisor: %w", err)
	}

	s := &Supervisor{r: r, loop: xr.Loop(), cfg: cfg, procs: make(map[string]*supervised)}
	for _, m := range r.modules {
		if r.classConfig(m.class) != nil {
			s.procs[m.class] = &supervised{mod: m}
		}
	}
	xr.SetFinderEvent(s.handleEvent)
	if err := r.watch(xr, "rtrmgr", "*"); err != nil {
		return nil, fmt.Errorf("rtrmgr: supervisor watch: %w", err)
	}
	r.sup = s
	return s, nil
}

// Supervisor returns the active supervisor (nil before EnableSupervision).
func (r *Router) Supervisor() *Supervisor { return r.sup }

// Stats reports the supervision counters for a class. Safe from any
// goroutine.
func (s *Supervisor) Stats(class string) (deaths, respawns int, givenUp bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.procs[class]
	if st == nil {
		return 0, 0, false
	}
	return st.deaths, st.respawns, st.givenUp
}

// handleEvent runs on the supervisor's loop for every Finder lifetime
// event ("birth"/"death", class, instance).
func (s *Supervisor) handleEvent(event, class, _ string) {
	if event != "death" {
		return
	}
	s.noteDeath(class)
}

// noteDeath updates crash-loop accounting for class and schedules a
// respawn (or gives up). Runs on the supervisor loop.
func (s *Supervisor) noteDeath(class string) {
	// A participant dying mid-reload poisons the open transaction: the
	// coordinator aborts and rolls back rather than committing onto a
	// respawned (blank-state) process.
	s.r.poisonTx(class, "died (supervisor)")
	s.mu.Lock()
	st := s.procs[class]
	if st == nil || st.givenUp {
		s.mu.Unlock()
		return
	}
	now := s.loop.Now()
	if !st.lastDeath.IsZero() && now.Sub(st.lastDeath) <= s.cfg.RapidWindow {
		st.rapid++
		st.backoff *= 2
		if st.backoff > s.cfg.MaxBackoff {
			st.backoff = s.cfg.MaxBackoff
		}
	} else {
		// A decent healthy run since the last death: fresh slate.
		st.rapid = 1
		st.backoff = s.cfg.InitialBackoff
	}
	st.lastDeath = now
	st.deaths++
	if st.rapid > s.cfg.MaxRapidDeaths {
		st.givenUp = true
		rapid := st.rapid
		s.mu.Unlock()
		if s.cfg.Alarm != nil {
			s.cfg.Alarm(class, rapid)
		}
		return
	}
	backoff := st.backoff
	s.mu.Unlock()
	s.loop.OneShot(backoff, func() { s.respawnNow(class, st) })
}

// respawnNow runs one respawn attempt. A failed attempt (setup error,
// registration failure) counts as another rapid death, so persistent
// failures hit the give-up path instead of retrying forever.
func (s *Supervisor) respawnNow(class string, st *supervised) {
	s.mu.Lock()
	if st.givenUp {
		s.mu.Unlock()
		return
	}
	st.respawns++
	s.mu.Unlock()
	s.r.respawn(st.mod, func(err error) {
		if err == nil {
			return
		}
		s.loop.Dispatch(func() { s.noteDeath(class) })
	})
}

// KillProcess simulates a crash of a protocol process (the chaos hook):
// the process is torn down locally — its loop stopped, its XRL router
// detached, its ports unbound — and its Finder registration is dropped,
// so every watcher sees the same death event a real crash would produce
// once liveness probing noticed the silence.
func (r *Router) KillProcess(class string) error {
	if r.module(class) == nil {
		return fmt.Errorf("rtrmgr: unknown process class %q", class)
	}
	if !r.teardown(class) {
		return fmt.Errorf("rtrmgr: no running %s process", class)
	}
	// Poison any open reload transaction synchronously: the Finder's
	// death broadcast reaches the supervisor too, but the coordinator
	// must see the failure even without supervision enabled.
	r.poisonTx(class, "killed mid-transaction")
	r.unregisterInstance(class)
	return nil
}

// unregisterInstance drops instance from the Finder, broadcasting its
// death. Sent through the FEA's router, which outlives protocol kills.
func (r *Router) unregisterInstance(instance string) {
	if r.simulated() {
		// Completion is observed by driving the loops (SettleAll).
		finder.UnregisterTarget(r.FEARouter, instance, nil)
		return
	}
	// The error is dropped: the process is gone whatever the Finder says.
	_ = r.await("finder unregistration", func(done func(error)) { finder.UnregisterTarget(r.FEARouter, instance, done) })
}
