package rib

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"xorp/internal/eventloop"
	"xorp/internal/route"
)

// coalesceRec records both the per-op stream and the batch boundaries a
// batch-capable FIB client observes.
type coalesceRec struct {
	batches int
	ops     []string
}

func (r *coalesceRec) FIBAdd(e route.Entry) { r.ops = append(r.ops, fmt.Sprintf("add %v", e.Net)) }
func (r *coalesceRec) FIBReplace(_, n route.Entry) {
	r.ops = append(r.ops, fmt.Sprintf("replace %v", n.Net))
}
func (r *coalesceRec) FIBDelete(e route.Entry) {
	r.ops = append(r.ops, fmt.Sprintf("delete %v", e.Net))
}
func (r *coalesceRec) FIBApplyBatch(b *FIBBatch) {
	r.batches++
	b.Ops(func(op FIBOp) {
		switch op.Kind {
		case FIBOpAdd:
			r.ops = append(r.ops, fmt.Sprintf("add %v", op.New.Net))
		case FIBOpReplace:
			r.ops = append(r.ops, fmt.Sprintf("replace %v", op.New.Net))
		case FIBOpDelete:
			r.ops = append(r.ops, fmt.Sprintf("delete %v", op.Old.Net))
		}
	})
}

// TestFIBCoalesceDrainBoundary: with a zero window, churn spanning
// several loop events — the shape of add+withdraw arriving as separate
// XRLs — folds into ONE batch at the drain boundary, with the
// transient add+delete cancelled entirely.
func TestFIBCoalesceDrainBoundary(t *testing.T) {
	loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
	rec := &coalesceRec{}
	p := NewProcess(loop, rec, nil)
	p.SetFIBCoalesce(0)

	a := route.Entry{Net: netip.MustParsePrefix("10.0.1.0/24"), Metric: 1}
	b := route.Entry{Net: netip.MustParsePrefix("10.0.2.0/24"), Metric: 1}
	// Three separate events in one drain: add a, add b, withdraw a.
	loop.Dispatch(func() { p.AddRoute(route.ProtoStatic, a) })
	loop.Dispatch(func() { p.AddRoute(route.ProtoStatic, b) })
	loop.Dispatch(func() { p.DeleteRoute(route.ProtoStatic, a.Net) })
	loop.RunPending()

	if rec.batches != 1 {
		t.Fatalf("batches = %d, want 1 (drain-boundary coalescing)", rec.batches)
	}
	if len(rec.ops) != 1 || rec.ops[0] != "add 10.0.2.0/24" {
		t.Fatalf("ops = %v, want the transient 10.0.1.0/24 folded away", rec.ops)
	}
}

// TestFIBCoalesceWindow: with a positive window, nothing ships until
// the window expires; everything queued in the window ships as one
// batch.
func TestFIBCoalesceWindow(t *testing.T) {
	loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
	rec := &coalesceRec{}
	p := NewProcess(loop, rec, nil)
	p.SetFIBCoalesce(50 * time.Millisecond)

	a := route.Entry{Net: netip.MustParsePrefix("10.0.1.0/24"), Metric: 1}
	b := route.Entry{Net: netip.MustParsePrefix("10.0.2.0/24"), Metric: 1}
	loop.Dispatch(func() { p.AddRoute(route.ProtoStatic, a) })
	loop.RunPending()
	loop.RunFor(20 * time.Millisecond)
	if rec.batches != 0 || len(rec.ops) != 0 {
		t.Fatalf("shipped before the window expired: batches=%d ops=%v", rec.batches, rec.ops)
	}
	loop.Dispatch(func() { p.AddRoute(route.ProtoStatic, b) })
	loop.RunFor(50 * time.Millisecond)
	if rec.batches != 1 || len(rec.ops) != 2 {
		t.Fatalf("after window: batches=%d ops=%v, want 1 batch of 2", rec.batches, rec.ops)
	}
}

// TestFIBCoalesceDisable: a negative window flushes whatever is pending
// and restores immediate shipping.
func TestFIBCoalesceDisable(t *testing.T) {
	loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
	rec := &coalesceRec{}
	p := NewProcess(loop, rec, nil)
	p.SetFIBCoalesce(time.Hour)

	a := route.Entry{Net: netip.MustParsePrefix("10.0.1.0/24"), Metric: 1}
	b := route.Entry{Net: netip.MustParsePrefix("10.0.2.0/24"), Metric: 1}
	loop.Dispatch(func() { p.AddRoute(route.ProtoStatic, a) })
	loop.RunPending()
	if rec.batches != 0 {
		t.Fatalf("shipped before flush: %v", rec.ops)
	}
	loop.Dispatch(func() { p.SetFIBCoalesce(-1) })
	loop.RunPending()
	if rec.batches != 1 || len(rec.ops) != 1 {
		t.Fatalf("disable did not flush: batches=%d ops=%v", rec.batches, rec.ops)
	}
	// Now immediate again: no batching, direct per-op delivery.
	loop.Dispatch(func() { p.AddRoute(route.ProtoStatic, b) })
	loop.RunPending()
	if rec.batches != 1 || len(rec.ops) != 2 {
		t.Fatalf("post-disable delivery: batches=%d ops=%v", rec.batches, rec.ops)
	}
}

// TestFIBCoalesceBatchRuns: coalescing composes with the origin-table
// batch fast path — several LoadBatch/DeleteBatch shipments inside one
// drain still reach the client as a single transaction.
func TestFIBCoalesceBatchRuns(t *testing.T) {
	loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
	rec := &coalesceRec{}
	p := NewProcess(loop, rec, nil)
	p.SetFIBCoalesce(0)

	var es []route.Entry
	for i := 0; i < 8; i++ {
		es = append(es, route.Entry{
			Net:    netip.MustParsePrefix(fmt.Sprintf("10.1.%d.0/24", i)),
			Metric: 1,
		})
	}
	loop.Dispatch(func() { p.AddRoutes(route.ProtoStatic, es[:4]) })
	loop.Dispatch(func() { p.AddRoutes(route.ProtoStatic, es[4:]) })
	loop.RunPending()

	if rec.batches != 1 {
		t.Fatalf("batches = %d, want 1", rec.batches)
	}
	if len(rec.ops) != 8 {
		t.Fatalf("ops = %d, want 8", len(rec.ops))
	}
}
