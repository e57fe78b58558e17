package eventloop

import (
	"sync"
	"testing"
	"time"
)

func TestDispatchOrder(t *testing.T) {
	l := New(NewSimClock(time.Unix(0, 0)))
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		l.Dispatch(func() { got = append(got, i) })
	}
	l.RunPending()
	for i, v := range got {
		if v != i {
			t.Fatalf("event order broken at %d: got %v", i, got)
		}
	}
	if len(got) != 10 {
		t.Fatalf("ran %d events, want 10", len(got))
	}
}

func TestDispatchFromCallback(t *testing.T) {
	l := New(NewSimClock(time.Unix(0, 0)))
	ran := false
	l.Dispatch(func() {
		l.Dispatch(func() { ran = true })
	})
	l.RunPending()
	if !ran {
		t.Fatal("nested dispatch did not run")
	}
}

func TestOneShotTimerSim(t *testing.T) {
	clk := NewSimClock(time.Unix(100, 0))
	l := New(clk)
	var fired []time.Time
	l.OneShot(5*time.Second, func() { fired = append(fired, l.Now()) })
	l.OneShot(2*time.Second, func() { fired = append(fired, l.Now()) })
	l.AdvanceTo(time.Unix(110, 0))
	if len(fired) != 2 {
		t.Fatalf("fired %d timers, want 2", len(fired))
	}
	if !fired[0].Equal(time.Unix(102, 0)) || !fired[1].Equal(time.Unix(105, 0)) {
		t.Fatalf("timers fired at %v", fired)
	}
	if !l.Now().Equal(time.Unix(110, 0)) {
		t.Fatalf("clock at %v, want 110s", l.Now())
	}
}

func TestPeriodicTimer(t *testing.T) {
	clk := NewSimClock(time.Unix(0, 0))
	l := New(clk)
	n := 0
	tm := l.Periodic(time.Second, func() { n++ })
	l.RunFor(3 * time.Second)
	if n != 3 {
		t.Fatalf("periodic fired %d times in 3s, want 3", n)
	}
	tm.Cancel()
	l.RunFor(5 * time.Second)
	if n != 3 {
		t.Fatalf("cancelled periodic still fired: n=%d", n)
	}
}

func TestTimerCancelBeforeFire(t *testing.T) {
	l := New(NewSimClock(time.Unix(0, 0)))
	fired := false
	tm := l.OneShot(time.Second, func() { fired = true })
	if !tm.Scheduled() {
		t.Fatal("timer should be scheduled")
	}
	tm.Cancel()
	if tm.Scheduled() {
		t.Fatal("cancelled timer still scheduled")
	}
	l.RunFor(2 * time.Second)
	if fired {
		t.Fatal("cancelled timer fired")
	}
}

func TestTimerReschedule(t *testing.T) {
	clk := NewSimClock(time.Unix(0, 0))
	l := New(clk)
	var at time.Time
	tm := l.OneShot(time.Second, func() { at = l.Now() })
	tm.Reschedule(10 * time.Second)
	l.RunFor(20 * time.Second)
	if !at.Equal(time.Unix(10, 0)) {
		t.Fatalf("rescheduled timer fired at %v, want 10s", at)
	}
}

func TestTimersFireInDeadlineOrder(t *testing.T) {
	l := New(NewSimClock(time.Unix(0, 0)))
	var order []int
	l.OneShot(3*time.Second, func() { order = append(order, 3) })
	l.OneShot(1*time.Second, func() { order = append(order, 1) })
	l.OneShot(2*time.Second, func() { order = append(order, 2) })
	l.RunFor(5 * time.Second)
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fire order %v, want %v", order, want)
		}
	}
}

func TestEqualDeadlinesFIFO(t *testing.T) {
	l := New(NewSimClock(time.Unix(0, 0)))
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		l.OneShot(time.Second, func() { order = append(order, i) })
	}
	l.RunFor(2 * time.Second)
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-deadline order %v", order)
		}
	}
}

func TestBackgroundTaskRunsWhenIdle(t *testing.T) {
	l := New(NewSimClock(time.Unix(0, 0)))
	steps := 0
	l.AddTask("count", func() bool {
		steps++
		return steps >= 7
	})
	l.RunPending()
	if steps != 7 {
		t.Fatalf("task ran %d slices, want 7", steps)
	}
	if l.PendingTasks() != 0 {
		t.Fatalf("%d tasks still pending", l.PendingTasks())
	}
}

func TestBackgroundTaskYieldsToEvents(t *testing.T) {
	// Each background slice enqueues a foreground event; the loop must run
	// that event before the next slice (foreground preempts background).
	l := New(NewSimClock(time.Unix(0, 0)))
	var trace []string
	slices := 0
	l.AddTask("bg", func() bool {
		slices++
		trace = append(trace, "slice")
		l.Dispatch(func() { trace = append(trace, "event") })
		return slices == 3
	})
	l.RunPending()
	want := []string{"slice", "event", "slice", "event", "slice", "event"}
	if len(trace) != len(want) {
		t.Fatalf("trace %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace %v, want %v", trace, want)
		}
	}
}

func TestTaskStop(t *testing.T) {
	l := New(NewSimClock(time.Unix(0, 0)))
	steps := 0
	task := l.AddTask("forever", func() bool {
		steps++
		return false
	})
	l.Dispatch(func() {
		l.Dispatch(func() { task.Stop() })
	})
	l.RunPending()
	if l.PendingTasks() != 0 {
		t.Fatal("stopped task still pending")
	}
	if steps != 0 {
		// Events preempt tasks, so Stop lands before any slice runs.
		t.Fatalf("task ran %d slices after stop-before-first-slice", steps)
	}
}

func TestMultipleTasksRoundRobin(t *testing.T) {
	l := New(NewSimClock(time.Unix(0, 0)))
	var trace []string
	mk := func(name string, n int) {
		count := 0
		l.AddTask(name, func() bool {
			count++
			trace = append(trace, name)
			return count >= n
		})
	}
	mk("a", 2)
	mk("b", 2)
	l.RunPending()
	want := []string{"a", "b", "a", "b"}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("round robin trace %v, want %v", trace, want)
		}
	}
}

func TestRealTimeRunStop(t *testing.T) {
	l := New(nil)
	var mu sync.Mutex
	ran := false
	done := make(chan struct{})
	go func() {
		l.Run()
		close(done)
	}()
	l.Dispatch(func() {
		mu.Lock()
		ran = true
		mu.Unlock()
	})
	l.DispatchAndWait(func() {})
	mu.Lock()
	if !ran {
		t.Error("event did not run under real-time Run")
	}
	mu.Unlock()
	l.Stop()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after Stop")
	}
}

func TestRealTimeTimer(t *testing.T) {
	l := New(nil)
	go l.Run()
	defer l.Stop()
	fired := make(chan struct{})
	l.Dispatch(func() {
		l.OneShot(10*time.Millisecond, func() { close(fired) })
	})
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("real-time timer did not fire")
	}
}

func TestAdvanceToPanicsOnRealClock(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AdvanceTo on a real clock did not panic")
		}
	}()
	New(nil).AdvanceTo(time.Now())
}

func TestPeriodicZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Periodic(0) did not panic")
		}
	}()
	New(NewSimClock(time.Unix(0, 0))).Periodic(0, func() {})
}

func TestSimClock(t *testing.T) {
	c := NewSimClock(time.Unix(50, 0))
	c.Advance(-time.Second)
	if !c.Now().Equal(time.Unix(50, 0)) {
		t.Fatal("negative advance moved the clock")
	}
	c.Set(time.Unix(40, 0))
	if !c.Now().Equal(time.Unix(50, 0)) {
		t.Fatal("Set moved the clock backward")
	}
	c.Advance(3 * time.Second)
	if !c.Now().Equal(time.Unix(53, 0)) {
		t.Fatalf("clock at %v", c.Now())
	}
}

// A loop driven a drain at a time keeps its queue between drains: the
// steady state of Dispatch + RunPending allocates nothing, whether the
// drain runs events, finds none, or fires a timer in between.
func TestRunPendingKeepsQueue(t *testing.T) {
	clock := NewSimClock(time.Unix(0, 0))
	l := New(clock)
	ran := 0
	fn := func() { ran++ }
	step := func() {
		l.Dispatch(fn)
		l.Dispatch(fn)
		l.RunPending()
		l.RunPending() // an idle drain must not throw the queue away
	}
	for i := 0; i < 10; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Fatalf("Dispatch+RunPending allocates %.2f objects per round, want 0", allocs)
	}
	tm := l.OneShot(time.Second, fn)
	advance := func() {
		l.Dispatch(fn)
		tm.Reschedule(time.Second)
		l.RunFor(time.Second)
	}
	advance()
	if allocs := testing.AllocsPerRun(1000, advance); allocs != 0 {
		t.Fatalf("Dispatch+AdvanceTo allocates %.2f objects per round, want 0", allocs)
	}
	if want := 2*1011 + 2*1002; ran != want {
		t.Fatalf("ran %d callbacks, want %d", ran, want)
	}
	// Drained slots are cleared, so a finished closure is collectable.
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, q := range [][]func(){l.events[:cap(l.events)], l.spare[:cap(l.spare)]} {
		for i, f := range q {
			if f != nil {
				t.Fatalf("drained queue still holds the event in slot %d", i)
			}
		}
	}
}
