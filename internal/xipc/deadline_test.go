package xipc

import (
	"testing"
	"time"

	"xorp/internal/eventloop"
	"xorp/internal/xrl"
)

// Tests of the deadline list (call.go): the calls in flight, in the order
// their reply timeouts and backoffs fall, with one loop timer for the
// head.

// deadlineRig is a sender on a simulated clock and, on its hub, two
// targets that take test/1.0/echo: "live" on a Router sharing the
// sender's loop, which answers at once, and "dead" on a Router whose loop
// (deadLoop) runs only when a test drives it, so until then its calls are
// never answered. Any other target fails to resolve.
type deadlineRig struct {
	loop, deadLoop *eventloop.Loop
	r              *Router
	answers        []answer // in callback order
}

// answer is one callback: the call's index in send order, and its error
// code (CodeOkay for a reply).
type answer struct {
	i    int
	code xrl.ErrorCode
}

func newDeadlineRig(t *testing.T) *deadlineRig {
	t.Helper()
	clock := eventloop.NewSimClock(time.Unix(0, 0))
	g := &deadlineRig{loop: eventloop.New(clock), deadLoop: eventloop.New(clock)}
	hub := NewHub()
	newStubFinder(g.loop, hub, func(target, _ string) (xrl.Args, error) {
		if target != "live" && target != "dead" {
			return nil, &xrl.Error{Code: xrl.CodeResolveFailed, Note: "no target " + target}
		}
		return resolution(target, "", xrl.ProtoIntra+"|"+hub.id), nil
	})
	for _, h := range []struct {
		name string
		loop *eventloop.Loop
	}{{"live", g.loop}, {"dead", g.deadLoop}} {
		tgt := NewTarget(h.name, h.name)
		tgt.Register("test", "1.0", "echo", func(args xrl.Args) (xrl.Args, error) { return args, nil })
		host := NewRouter(h.name+"_process", h.loop)
		host.AddTarget(tgt)
		host.AttachHub(hub)
	}
	g.r = NewRouter("sender", g.loop)
	g.r.AttachHub(hub)
	return g
}

// send sends call i to target; how is Router.Send or sendIdempotent.
func (g *deadlineRig) send(how func(xrl.XRL, Callback), target string, i int) {
	how(xrl.New(target, "test", "1.0", "echo", xrl.U32("i", uint32(i))), func(_ xrl.Args, err *xrl.Error) {
		o := answer{i: i, code: xrl.CodeOkay}
		if err != nil {
			o.code = err.Code
		}
		g.answers = append(g.answers, o)
	})
}

// sendRange sends calls from..to-1 to target with Send.
func (g *deadlineRig) sendRange(target string, from, to int) {
	for i := from; i < to; i++ {
		g.send(g.r.Send, target, i)
	}
}

// listed returns the send indices of the calls on the deadline list, head
// first, after checking its links both ways and its order.
func (g *deadlineRig) listed(t *testing.T) []int {
	t.Helper()
	var out []int
	var prev *call
	for c := g.r.dhead; c != nil; prev, c = c, c.next {
		if c.prev != prev {
			t.Fatalf("deadline list: record %d does not link back to its predecessor", len(out))
		}
		if prev != nil && c.deadline.Before(prev.deadline) {
			t.Fatalf("deadline list: record %d is due before the one ahead of it", len(out))
		}
		i, ok := c.x.Args.Get("i")
		if !ok || i.Type != xrl.TypeU32 {
			t.Fatalf("deadline list: record %d carries %v", len(out), c.x.Args)
		}
		out = append(out, int(i.IntVal))
	}
	if g.r.dtail != prev {
		t.Fatalf("deadline list: the tail is not the last of the %d records linked from the head", len(out))
	}
	return out
}

// take returns the answers so far and forgets them.
func (g *deadlineRig) take() []answer {
	out := g.answers
	g.answers = nil
	return out
}

// wantAnswers checks got against want, one answer per index in order.
func wantAnswers(t *testing.T, what string, got []answer, code xrl.ErrorCode, order []int) {
	t.Helper()
	if len(got) != len(order) {
		t.Fatalf("%s: %d callbacks, want %d", what, len(got), len(order))
	}
	for k, o := range got {
		if o.i != order[k] || o.code != code {
			t.Fatalf("%s: callback %d is call %d with %v, want call %d with %v", what, k, o.i, o.code, order[k], code)
		}
	}
}

func seq(from, to int) []int {
	out := make([]int, 0, to-from)
	for i := from; i < to; i++ {
		out = append(out, i)
	}
	return out
}

func TestDeadlineWindowTimesOutInSendOrder(t *testing.T) {
	const timeout = 5 * time.Second
	g := newDeadlineRig(t)
	g.r.SetTimeout(timeout)
	g.sendRange("dead", 0, 100)
	g.loop.RunPending()
	if got := g.listed(t); len(got) != 100 {
		t.Fatalf("deadline list holds %d calls, want the window of 100", len(got))
	}
	g.loop.RunFor(timeout - time.Nanosecond)
	if got := g.take(); len(got) != 0 {
		t.Fatalf("%d callbacks a nanosecond before the timeout", len(got))
	}
	g.loop.RunFor(time.Nanosecond)
	wantAnswers(t, "at the timeout", g.take(), xrl.CodeReplyTimeout, seq(0, 100))
	if got := g.listed(t); len(got) != 0 {
		t.Fatalf("deadline list holds %v after every call timed out", got)
	}
}

func TestDeadlineAnsweredCallsLeaveTheList(t *testing.T) {
	const timeout = 5 * time.Second
	g := newDeadlineRig(t)
	g.r.SetTimeout(timeout)
	g.sendRange("dead", 0, 25)
	g.sendRange("live", 25, 75)
	g.sendRange("dead", 75, 100)
	g.loop.RunPending()
	wantAnswers(t, "the live calls", g.take(), xrl.CodeOkay, seq(25, 75))
	unanswered := append(seq(0, 25), seq(75, 100)...)
	got := g.listed(t)
	if len(got) != len(unanswered) {
		t.Fatalf("deadline list holds calls %v, want the 50 unanswered", got)
	}
	for k := range got {
		if got[k] != unanswered[k] {
			t.Fatalf("deadline list holds calls %v, want %v", got, unanswered)
		}
	}
	g.loop.RunFor(timeout - time.Nanosecond)
	if got := g.take(); len(got) != 0 {
		t.Fatalf("%d callbacks a nanosecond before the timeout", len(got))
	}
	g.loop.RunFor(time.Nanosecond)
	wantAnswers(t, "at the timeout", g.take(), xrl.CodeReplyTimeout, unanswered)
}

func TestDeadlineShortenedTimeoutFiresLaterCallsFirst(t *testing.T) {
	g := newDeadlineRig(t)
	g.r.SetTimeout(10 * time.Second)
	g.sendRange("dead", 0, 50)
	g.loop.RunPending()
	g.loop.RunFor(time.Second)
	g.r.SetTimeout(2 * time.Second)
	g.sendRange("dead", 50, 100) // due at 3 s, the first fifty at 10 s
	g.loop.RunPending()
	if got := g.listed(t); len(got) != 100 || got[0] != 50 || got[50] != 0 {
		t.Fatalf("deadline list holds calls %v, want 50..99 ahead of 0..49", got)
	}
	g.loop.RunFor(2*time.Second - time.Nanosecond)
	if got := g.take(); len(got) != 0 {
		t.Fatalf("%d callbacks before the shortened timeout", len(got))
	}
	g.loop.RunFor(time.Nanosecond)
	wantAnswers(t, "at the shortened timeout", g.take(), xrl.CodeReplyTimeout, seq(50, 100))
	g.loop.RunFor(7*time.Second - time.Nanosecond)
	if got := g.take(); len(got) != 0 {
		t.Fatalf("%d callbacks before the first calls' timeout", len(got))
	}
	g.loop.RunFor(time.Nanosecond)
	wantAnswers(t, "at the first calls' timeout", g.take(), xrl.CodeReplyTimeout, seq(0, 50))
}

func TestDeadlineBackoffOvertakesAWindow(t *testing.T) {
	// A backoff drawn from [Base/2, Base] must end on time with a window
	// of calls due long after it listed ahead.
	const timeout = 30 * time.Second
	g := newDeadlineRig(t)
	g.r.SetTimeout(timeout)
	g.r.retry = RetryPolicy{Attempts: 2, Base: 100 * time.Millisecond, Max: time.Second}
	g.sendRange("dead", 0, 100)
	g.send(g.r.sendIdempotent, "nowhere", 100)
	g.loop.RunPending() // the first attempt fails to resolve and backs off
	if got := g.listed(t); len(got) != 101 || got[0] != 100 {
		t.Fatalf("deadline list holds calls %v, want the backoff at the head", got)
	}
	g.loop.RunFor(50*time.Millisecond - time.Nanosecond)
	if got := g.take(); len(got) != 0 {
		t.Fatalf("%d callbacks before the shortest backoff could end", len(got))
	}
	g.loop.RunFor(50*time.Millisecond + time.Nanosecond)
	wantAnswers(t, "after the longest backoff", g.take(), xrl.CodeResolveFailed, []int{100})
	g.loop.RunFor(timeout - 100*time.Millisecond - time.Nanosecond)
	if got := g.take(); len(got) != 0 {
		t.Fatalf("%d callbacks before the window's timeout", len(got))
	}
	g.loop.RunFor(time.Nanosecond)
	wantAnswers(t, "at the window's timeout", g.take(), xrl.CodeReplyTimeout, seq(0, 100))
}

func TestDeadlineAwayCallReleasedOnceHome(t *testing.T) {
	// An intra call that times out while its record is at the far loop:
	// the caller hears the timeout, once; the record goes back on the free
	// list when it comes home, once, and the late reply reaches no one.
	const timeout = time.Second
	g := newDeadlineRig(t)
	g.r.SetTimeout(timeout)
	g.send(g.r.Send, "dead", 0)
	g.loop.RunPending()
	free := func() (n int) {
		g.r.mu.Lock()
		defer g.r.mu.Unlock()
		seen := map[*call]bool{}
		for c := g.r.free; c != nil; c = c.next {
			if seen[c] {
				t.Fatal("free list holds a record twice")
			}
			seen[c] = true
			n++
		}
		if n != g.r.nfree {
			t.Fatalf("free list holds %d records, nfree says %d", n, g.r.nfree)
		}
		return n
	}
	before := free()
	g.loop.RunFor(timeout)
	wantAnswers(t, "at the timeout", g.take(), xrl.CodeReplyTimeout, []int{0})
	if n := free(); n != before {
		t.Fatalf("free list went from %d to %d records while the timed-out record was away", before, n)
	}
	g.deadLoop.RunPending() // the far target answers, late
	g.loop.RunFor(timeout)
	if got := g.take(); len(got) != 0 {
		t.Fatalf("late reply reached %d callbacks", len(got))
	}
	if n := free(); n != before+1 {
		t.Fatalf("free list went from %d to %d records when the record came home, want one more", before, n)
	}
	if got := g.listed(t); len(got) != 0 {
		t.Fatalf("deadline list holds %v", got)
	}
}
