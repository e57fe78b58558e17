package xipc

import (
	"testing"

	"xorp/internal/eventloop"
	"xorp/internal/xrl"
)

// Allocation-regression tests for the intra-process dispatch path (the
// Figure-9 "direct method call" family). These lock in the fast-path
// guarantee: a local XRL completes with zero heap allocations, sent from
// the event loop or across its queue (a reused call record carries it).

func newLocalEcho() (*Router, *eventloop.Loop) {
	loop := eventloop.New(nil)
	r := NewRouter("alloc_test", loop)
	tgt := NewTarget("sinkT", "sinkT")
	tgt.Register("bench", "1.0", "sink", func(args xrl.Args) (xrl.Args, error) {
		return nil, nil
	})
	r.AddTarget(tgt)
	return r, loop
}

func TestSendFromLoopLocalZeroAlloc(t *testing.T) {
	r, loop := newLocalEcho()
	defer r.Close()
	call := xrl.New("sinkT", "bench", "1.0", "sink",
		xrl.U32("a0", 0), xrl.U32("a1", 1), xrl.U32("a2", 2))
	completed := 0
	cb := func(_ xrl.Args, err *xrl.Error) {
		if err != nil {
			t.Errorf("local send failed: %v", err)
		}
		completed++
	}
	// The test goroutine drives the loop (RunPending), so it owns the
	// loop context and may use SendFromLoop directly.
	r.SendFromLoop(call, cb)
	loop.RunPending()

	allocs := testing.AllocsPerRun(500, func() {
		r.SendFromLoop(call, cb)
	})
	if allocs != 0 {
		t.Fatalf("intra-process SendFromLoop allocates %.1f objects per op, want 0", allocs)
	}
	if completed == 0 {
		t.Fatal("callbacks never ran")
	}
}

func TestSendLocalAllocBound(t *testing.T) {
	r, loop := newLocalEcho()
	defer r.Close()
	call := xrl.New("sinkT", "bench", "1.0", "sink", xrl.U32("a0", 0))
	cb := func(_ xrl.Args, err *xrl.Error) {
		if err != nil {
			t.Errorf("local send failed: %v", err)
		}
	}
	r.Send(call, cb)
	loop.RunPending()

	// The XRL crosses the queue in a call record taken from the Router's
	// free list and handed to Dispatch through a func bound when the
	// record was made: nothing is allocated per Send.
	allocs := testing.AllocsPerRun(500, func() {
		r.Send(call, cb)
		loop.RunPending()
	})
	if allocs != 0 {
		t.Fatalf("queued local Send allocates %.1f objects per op, want 0", allocs)
	}
}
