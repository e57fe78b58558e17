package eventloop

import (
	"container/heap"
	"fmt"
	"sync"
	"time"
)

// Loop is a single-threaded event dispatcher. All callbacks — dispatched
// events, timer expirations and background-task slices — run serially, so
// state owned by a Loop needs no further synchronization.
//
// A Loop may be driven in real time by Run (typically in a dedicated
// goroutine) or deterministically by RunPending / AdvanceTo / RunFor
// (AdvanceAll for several loops on one simulated clock).
// The two driving styles must not be mixed concurrently.
type Loop struct {
	clock Clock

	mu     sync.Mutex
	events []func()
	// spare is the batch RunPending drained last, emptied: the next drain
	// installs it as the queue, so Dispatch appends into capacity the loop
	// already owns however it is driven.
	spare   []func()
	timers  timerHeap
	tasks   []*Task
	wake    chan struct{}
	stopped bool
	seq     uint64 // tiebreak for timers with equal deadlines
}

// New returns a Loop driven by the given clock. A nil clock means the wall
// clock.
func New(clock Clock) *Loop {
	if clock == nil {
		clock = RealClock{}
	}
	return &Loop{
		clock: clock,
		wake:  make(chan struct{}, 1),
	}
}

// Clock returns the loop's clock.
func (l *Loop) Clock() Clock { return l.clock }

// Now returns the loop clock's current time.
func (l *Loop) Now() time.Time { return l.clock.Now() }

// Dispatch enqueues fn to run on the loop. It is safe to call from any
// goroutine, including from within loop callbacks.
func (l *Loop) Dispatch(fn func()) {
	l.mu.Lock()
	l.events = append(l.events, fn)
	l.mu.Unlock()
	l.signal()
}

// DispatchAndWait runs fn on the loop and blocks until it has completed.
// It must not be called from within a loop callback (it would deadlock
// under Run) and is intended for tests and process setup.
func (l *Loop) DispatchAndWait(fn func()) {
	done := make(chan struct{})
	l.Dispatch(func() {
		defer close(done)
		fn()
	})
	<-done
}

// QueueDepth returns the number of dispatched events not yet run — the
// loop's input backlog. Safe from any goroutine (the ops plane scrapes
// it as a per-process queue-depth gauge).
func (l *Loop) QueueDepth() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

func (l *Loop) signal() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// Timer is a scheduled callback. A Timer is returned by OneShot and
// Periodic and may be cancelled at any time.
type Timer struct {
	loop     *Loop
	deadline time.Time
	period   time.Duration // 0 for one-shot
	fn       func()
	index    int // heap index, -1 when not scheduled
	seq      uint64
}

// Cancel descheduled the timer. Cancelling an already-fired one-shot timer
// is a no-op. Safe to call from any goroutine.
func (t *Timer) Cancel() {
	l := t.loop
	l.mu.Lock()
	if t.index >= 0 {
		heap.Remove(&l.timers, t.index)
	}
	t.period = 0
	l.mu.Unlock()
}

// Scheduled reports whether the timer is still pending.
func (t *Timer) Scheduled() bool {
	t.loop.mu.Lock()
	defer t.loop.mu.Unlock()
	return t.index >= 0
}

// Reschedule moves a timer's next expiry to d from now, preserving its
// periodicity. If the timer already fired (one-shot) it is re-armed.
func (t *Timer) Reschedule(d time.Duration) {
	l := t.loop
	l.mu.Lock()
	if t.index >= 0 {
		heap.Remove(&l.timers, t.index)
	}
	t.deadline = l.clock.Now().Add(d)
	l.seq++
	t.seq = l.seq
	heap.Push(&l.timers, t)
	l.mu.Unlock()
	l.signal()
}

// OneShot schedules fn to run once, d from now.
func (l *Loop) OneShot(d time.Duration, fn func()) *Timer {
	return l.schedule(d, 0, fn)
}

// Periodic schedules fn to run every period, first firing one period from
// now. The period must be positive.
func (l *Loop) Periodic(period time.Duration, fn func()) *Timer {
	if period <= 0 {
		panic(fmt.Sprintf("eventloop: non-positive period %v", period))
	}
	return l.schedule(period, period, fn)
}

func (l *Loop) schedule(d, period time.Duration, fn func()) *Timer {
	l.mu.Lock()
	l.seq++
	t := &Timer{
		loop:     l,
		deadline: l.clock.Now().Add(d),
		period:   period,
		fn:       fn,
		seq:      l.seq,
	}
	heap.Push(&l.timers, t)
	l.mu.Unlock()
	l.signal()
	return t
}

// Task is a cooperative background task (paper §4): a unit of work divided
// into small slices that run only when no foreground events are pending.
// Step is invoked repeatedly; it returns true when the task is complete.
type Task struct {
	loop    *Loop
	name    string
	step    func() bool
	stopped bool
}

// Name returns the task's diagnostic name.
func (t *Task) Name() string { return t.name }

// Stop removes the task from its loop without running further slices.
// Safe to call from loop callbacks (including the task's own Step).
func (t *Task) Stop() {
	l := t.loop
	l.mu.Lock()
	t.stopped = true
	for i, x := range l.tasks {
		if x == t {
			l.tasks = append(l.tasks[:i], l.tasks[i+1:]...)
			break
		}
	}
	l.mu.Unlock()
}

// AddTask registers a background task. Slices are run round-robin across
// tasks whenever the event queue is empty and no timer is due.
func (l *Loop) AddTask(name string, step func() bool) *Task {
	t := &Task{loop: l, name: name, step: step}
	l.mu.Lock()
	l.tasks = append(l.tasks, t)
	l.mu.Unlock()
	l.signal()
	return t
}

// PendingTasks returns the number of live background tasks.
func (l *Loop) PendingTasks() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.tasks)
}

// popEvents takes the entire queued event batch in one lock acquisition,
// installing scratch (the batch the caller has just run, or the loop's
// spare) as the new empty queue so the two slices ping-pong with no
// steady-state allocation. Draining per batch instead of per event is
// what makes a pipelined XRL window cost one queue operation rather than
// one per call. With nothing queued the queue stays where it is and
// scratch is parked in l.spare for the next drain; the caller must not
// use it again.
func (l *Loop) popEvents(scratch []func()) []func() {
	l.mu.Lock()
	defer l.mu.Unlock()
	evs := l.events
	if len(evs) == 0 {
		if scratch != nil {
			l.spare = scratch[:0]
		}
		return nil
	}
	if scratch == nil {
		scratch, l.spare = l.spare, nil
	}
	l.events = scratch[:0]
	return evs
}

// popDueTimer pops the earliest timer with deadline <= now, re-arming it
// first if periodic. Returns nil if no timer is due.
func (l *Loop) popDueTimer(now time.Time) *Timer {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.timers) == 0 || l.timers[0].deadline.After(now) {
		return nil
	}
	t := heap.Pop(&l.timers).(*Timer)
	if t.period > 0 {
		t.deadline = now.Add(t.period)
		l.seq++
		t.seq = l.seq
		heap.Push(&l.timers, t)
	}
	return t
}

// nextDeadline returns the earliest timer deadline, if any.
func (l *Loop) nextDeadline() (time.Time, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.timers) == 0 {
		return time.Time{}, false
	}
	return l.timers[0].deadline, true
}

// stepTask runs one slice of the first background task, rotating it to the
// back of the task list. Returns false if there are no tasks.
func (l *Loop) stepTask() bool {
	l.mu.Lock()
	if len(l.tasks) == 0 {
		l.mu.Unlock()
		return false
	}
	t := l.tasks[0]
	l.tasks = append(l.tasks[1:], t)
	l.mu.Unlock()

	if t.step() {
		t.Stop()
	}
	return true
}

// RunPending runs queued events, due timers, and — once the queue drains —
// background-task slices until nothing more is runnable at the current
// clock reading. It returns the number of callbacks executed. It never
// advances a simulated clock.
func (l *Loop) RunPending() int {
	n := 0
	var scratch []func()
	for {
		evs := l.popEvents(scratch)
		if len(evs) > 0 {
			for i, fn := range evs {
				fn()
				evs[i] = nil
			}
			n += len(evs)
			scratch = evs
			continue
		}
		scratch = nil // parked in l.spare by popEvents
		if t := l.popDueTimer(l.clock.Now()); t != nil {
			t.fn()
			n++
			continue
		}
		if l.stepTask() {
			n++
			// Re-check the event queue between slices so foreground
			// work preempts background work, as in the paper.
			continue
		}
		return n
	}
}

// AdvanceTo drives a simulated-clock loop forward to time t: it runs all
// pending work, then repeatedly jumps the clock to the next timer deadline
// not after t and fires it. On return the clock reads exactly t. It panics
// if the loop's clock is not a *SimClock.
func (l *Loop) AdvanceTo(t time.Time) { AdvanceAll(t, l) }

// AdvanceAll is AdvanceTo for loops sharing one SimClock — a simulated
// network of routers, each with its own loop. The clock jumps to the
// earliest timer deadline of any loop, and every loop's runnable work is
// run to quiescence before the next jump: a callback on one loop may
// dispatch onto another (a datagram to a neighbour), and that work happens
// at the sender's instant. It panics unless every loop's clock is the same
// *SimClock.
func AdvanceAll(t time.Time, loops ...*Loop) {
	sim, ok := loops[0].clock.(*SimClock)
	if !ok {
		panic("eventloop: AdvanceTo requires a SimClock")
	}
	for _, l := range loops[1:] {
		if l.clock != Clock(sim) {
			panic("eventloop: AdvanceAll requires loops sharing one SimClock")
		}
	}
	for {
		settle(loops)
		d, ok := nextDeadline(loops)
		if !ok || d.After(t) {
			break
		}
		sim.Set(d)
	}
	sim.Set(t)
	settle(loops)
}

// settle runs every loop's runnable work until none has any. One loop's
// RunPending already drains it; several go round until a pass finds no
// work, since each may have fed the others.
func settle(loops []*Loop) {
	for {
		n := 0
		for _, l := range loops {
			n += l.RunPending()
		}
		if n == 0 || len(loops) == 1 {
			return
		}
	}
}

// nextDeadline returns the earliest timer deadline across loops, if any.
func nextDeadline(loops []*Loop) (time.Time, bool) {
	var next time.Time
	found := false
	for _, l := range loops {
		if d, ok := l.nextDeadline(); ok && (!found || d.Before(next)) {
			next, found = d, true
		}
	}
	return next, found
}

// RunFor is AdvanceTo(Now().Add(d)).
func (l *Loop) RunFor(d time.Duration) { l.AdvanceTo(l.clock.Now().Add(d)) }

// Run drives the loop in real time until Stop is called. It blocks and is
// typically invoked in a dedicated goroutine.
func (l *Loop) Run() {
	l.mu.Lock()
	l.stopped = false
	l.mu.Unlock()
	var tm *time.Timer // the idle sleep, reused: a busy loop idles briefly and often
	for {
		l.mu.Lock()
		stopped := l.stopped
		l.mu.Unlock()
		if stopped {
			return
		}
		if l.RunPending() > 0 {
			continue
		}
		// Idle: sleep until the next timer or an external wakeup.
		if d, ok := l.nextDeadline(); ok {
			wait := time.Until(d)
			if wait <= 0 {
				continue
			}
			if tm == nil {
				tm = time.NewTimer(wait)
			} else {
				tm.Reset(wait)
			}
			select {
			case <-l.wake:
				tm.Stop()
			case <-tm.C:
			}
		} else {
			<-l.wake
		}
	}
}

// Stop makes Run return after the current callback completes. Safe to call
// from any goroutine.
func (l *Loop) Stop() {
	l.mu.Lock()
	l.stopped = true
	l.mu.Unlock()
	l.signal()
}

// timerHeap is a min-heap of timers ordered by (deadline, seq).
type timerHeap []*Timer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if !h[i].deadline.Equal(h[j].deadline) {
		return h[i].deadline.Before(h[j].deadline)
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *timerHeap) Push(x any) {
	t := x.(*Timer)
	t.index = len(*h)
	*h = append(*h, t)
}
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	t.index = -1
	*h = old[:n-1]
	return t
}
