package xipc

import (
	"slices"
	"testing"
	"time"

	"xorp/internal/xrl"
)

// FuzzSendOrder checks the per-target order of a caller's sends against
// the failures a restarting peer causes. The input is a script for a
// caller and a target on one Hub and one SimClock loop, with a stub
// Finder: one op a byte, its value mod 8 saying what happens.
//
//	0–3  send: set or put (bit 0), idempotent or not (bit 1)
//	4    a loop pass: every call queued on the loop runs
//	5    the clock advances (b/8+1)·10 ms
//	6    a failure window of one loop pass, kind b/8 mod 3: the target
//	     answers every call SEND_FAILED (a tearing connection), the
//	     Finder refuses every lookup (RESOLVE_FAILED), or the target is
//	     not on the Hub
//	7    the clock advances 1 s
//
// Sends wait for the next pass or advance, so a failure window covers
// whole loop passes, as a real transport fails between them. The
// property: the target applies the calls in increasing send order; every
// callback runs exactly once, with success exactly when the target
// applied the call; every order queue is sorted by send order after each
// op; and once quiet, no order queue is left.
//
// Seeds in testdata/fuzz/FuzzSendOrder: concurrent_retries is
// TestConcurrentRetriesKeepTheirOrder's sequence (a second call backing
// off was overtaken: [0 1 3 2]).
func FuzzSendOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 256 {
			script = script[:256]
		}
		runSendOrder(t, script)
	})
}

// runSendOrder runs one FuzzSendOrder script.
func runSendOrder(t *testing.T, script []byte) {
	loop, hub := simLoop(), NewHub()
	refuse, tear := false, false
	newStubFinder(loop, hub, func(string, string) (xrl.Args, error) {
		if refuse {
			return nil, &xrl.Error{Code: xrl.CodeResolveFailed, Note: "finder refuses"}
		}
		return resolution("peer", "", xrl.ProtoIntra+"|"+hub.id), nil
	})
	var applied []int
	pr := NewRouter("peer_process", loop)
	pt := NewTarget("peer", "peer")
	for _, m := range []string{"set", "put"} {
		pt.Register("test", "1.0", m, func(a xrl.Args) (xrl.Args, error) {
			if tear {
				return nil, &xrl.Error{Code: xrl.CodeSendFailed, Note: "connection torn"}
			}
			i, _ := a.Get("i")
			applied = append(applied, int(i.IntVal))
			return nil, nil
		})
	}
	pr.AddTarget(pt)
	pr.AttachHub(hub)

	cr := NewRouter("caller_process", loop)
	cr.AttachHub(hub)
	cr.retry = RetryPolicy{Attempts: 4, Base: 50 * time.Millisecond, Max: time.Second}
	var answers []int // per send, how many times its callback ran
	var failed []bool // per send, whether its last answer was a failure
	send := func(method string, idem bool) {
		i := len(answers)
		answers, failed = append(answers, 0), append(failed, false)
		cr.SendArgs(xrl.New("peer", "test", "1.0", method), xrl.Args{xrl.U32("i", uint32(i))},
			func(_ xrl.Args, err *xrl.Error) { answers[i]++; failed[i] = err != nil }, idem)
	}
	sorted := func(step int) {
		for target, q := range cr.pendingSends {
			for k := 1; k < len(q.calls); k++ {
				if int32(q.calls[k].order-q.calls[k-1].order) <= 0 {
					t.Fatalf("after op %d the order queue of %s is out of send order at %d", step, target, k)
				}
			}
		}
	}

	for step, b := range script {
		switch b % 8 {
		case 0, 1, 2, 3:
			send([]string{"set", "put"}[b&1], b&2 != 0)
		case 4:
			loop.RunPending()
		case 5:
			loop.RunFor(time.Duration(b/8+1) * 10 * time.Millisecond)
		case 6:
			switch b / 8 % 3 {
			case 0:
				tear = true
			case 1:
				refuse = true
			case 2:
				pr.RemoveTarget("peer")
			}
			loop.RunPending()
			tear, refuse = false, false
			pr.AddTarget(pt)
		case 7:
			loop.RunFor(time.Second)
		}
		sorted(step)
	}
	loop.RunFor(10 * time.Second) // every backoff ends

	if !slices.IsSorted(applied) || len(slices.Compact(slices.Clone(applied))) != len(applied) {
		t.Fatalf("the target applied %v, want increasing send order", applied)
	}
	for i, n := range answers {
		if n != 1 {
			t.Fatalf("call %d answered %d times, want once", i, n)
		}
		if ran := slices.Contains(applied, i); ran == failed[i] {
			t.Fatalf("call %d applied %v and failed %v, want one of them", i, ran, failed[i])
		}
	}
	if len(cr.pendingSends) != 0 {
		t.Fatalf("quiet, %d order queues are left", len(cr.pendingSends))
	}
}
