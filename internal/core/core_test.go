package core

import (
	"math/rand"
	"net/netip"
	"slices"
	"testing"
	"testing/quick"

	"xorp/internal/telemetry"
)

func mustP(s string) netip.Prefix { return netip.MustParsePrefix(s) }

func TestCheckerRules(t *testing.T) {
	var violations telemetry.Counter
	c := NewChecker[int]("test", &violations)
	p := mustP("10.0.0.0/8")

	if v := c.Delete(p); v == nil {
		t.Fatal("delete-before-add not flagged")
	}
	if v := c.Replace(p, 1); v == nil {
		t.Fatal("replace-before-add not flagged")
	}
	if v := c.Add(p, 1); v != nil {
		t.Fatalf("clean add flagged: %v", v)
	}
	if v := c.Add(p, 2); v == nil {
		t.Fatal("double add not flagged")
	}
	if v := c.Replace(p, 3); v != nil {
		t.Fatalf("clean replace flagged: %v", v)
	}
	if got, ok := c.Lookup(p); !ok || got != 3 {
		t.Fatalf("Lookup = %d, %v", got, ok)
	}
	if v := c.Delete(p); v != nil {
		t.Fatalf("clean delete flagged: %v", v)
	}
	if _, ok := c.Lookup(p); ok {
		t.Fatal("lookup after delete")
	}
	if n := violations.Value(); n != 3 {
		t.Fatalf("counted %d violations, want 3", n)
	}
	if c.Add(p, 4) != nil || c.Add(p, 5).Error() == "" {
		t.Fatal("empty violation message")
	}
}

func TestFanoutBasicDelivery(t *testing.T) {
	q := NewFanoutQueue[int]()
	var a, b []int
	ra := q.AddReader(func(v int) bool { a = append(a, v); return true })
	rb := q.AddReader(func(v int) bool { b = append(b, v); return true })
	for i := 0; i < 5; i++ {
		q.Push(i)
	}
	q.PumpAll()
	if len(a) != 5 || len(b) != 5 {
		t.Fatalf("a=%v b=%v", a, b)
	}
	if q.Len() != 0 {
		t.Fatalf("queue holds %d entries after full consumption", q.Len())
	}
	if ra.Backlog() != 0 || rb.Backlog() != 0 {
		t.Fatal("nonzero backlog after pump")
	}
}

func TestFanoutSlowReaderHoldsQueue(t *testing.T) {
	q := NewFanoutQueue[int]()
	var fast, slow []int
	q.AddReader(func(v int) bool { fast = append(fast, v); return true })
	rs := q.AddReader(func(v int) bool { slow = append(slow, v); return true })
	rs.SetBusy(true)

	for i := 0; i < 100; i++ {
		q.Push(i)
	}
	q.PumpAll()
	if len(fast) != 100 || len(slow) != 0 {
		t.Fatalf("fast=%d slow=%d", len(fast), len(slow))
	}
	// The single queue holds entries for the slow reader only.
	if q.Len() != 100 {
		t.Fatalf("queue len = %d, want 100", q.Len())
	}
	if rs.Backlog() != 100 {
		t.Fatalf("slow backlog = %d", rs.Backlog())
	}
	rs.SetBusy(false)
	q.PumpAll()
	if len(slow) != 100 || q.Len() != 0 {
		t.Fatalf("after resume: slow=%d queue=%d", len(slow), q.Len())
	}
	for i, v := range slow {
		if v != i {
			t.Fatalf("slow reader order broken: %v", slow[:i+1])
		}
	}
}

func TestFanoutReaderJoinsAtTail(t *testing.T) {
	q := NewFanoutQueue[int]()
	q.AddReader(func(int) bool { return true })
	q.Push(1)
	q.Push(2)
	var late []int
	q.AddReader(func(v int) bool { late = append(late, v); return true })
	q.Push(3)
	q.PumpAll()
	if len(late) != 1 || late[0] != 3 {
		t.Fatalf("late reader saw %v, want [3]", late)
	}
}

func TestFanoutRemoveSlowReaderTrims(t *testing.T) {
	q := NewFanoutQueue[int]()
	q.AddReader(func(int) bool { return true })
	rs := q.AddReader(func(int) bool { return true })
	rs.SetBusy(true)
	for i := 0; i < 10; i++ {
		q.Push(i)
	}
	q.PumpAll()
	if q.Len() != 10 {
		t.Fatalf("queue len = %d", q.Len())
	}
	q.RemoveReader(rs)
	if q.Len() != 0 {
		t.Fatalf("queue len = %d after removing slow reader", q.Len())
	}
}

func TestFanoutDeliverBackpressure(t *testing.T) {
	q := NewFanoutQueue[int]()
	accepted := 0
	r := q.AddReader(func(v int) bool {
		if accepted >= 3 {
			return false
		}
		accepted++
		return true
	})
	for i := 0; i < 10; i++ {
		q.Push(i)
	}
	q.PumpAll()
	if accepted != 3 {
		t.Fatalf("accepted %d, want 3", accepted)
	}
	if r.Backlog() != 7 {
		t.Fatalf("backlog = %d, want 7", r.Backlog())
	}
}

func TestFanoutNoReaders(t *testing.T) {
	q := NewFanoutQueue[int]()
	q.Push(1)
	q.PumpAll()
	if q.Len() != 0 {
		t.Fatal("entries retained with no readers")
	}
}

func TestQuickFanoutEveryReaderSeesEverythingInOrder(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q := NewFanoutQueue[int]()
		const nr = 4
		got := make([][]int, nr)
		readers := make([]*FanoutReader[int], nr)
		for i := 0; i < nr; i++ {
			i := i
			readers[i] = q.AddReader(func(v int) bool {
				got[i] = append(got[i], v)
				return true
			})
		}
		n := 0
		for step := 0; step < 200; step++ {
			switch r.Intn(4) {
			case 0, 1:
				q.Push(n)
				n++
			case 2:
				ri := r.Intn(nr)
				readers[ri].SetBusy(!readers[ri].Busy())
			case 3:
				q.PumpAll()
			}
		}
		for _, rr := range readers {
			rr.SetBusy(false)
		}
		q.PumpAll()
		for i := 0; i < nr; i++ {
			if len(got[i]) != n {
				return false
			}
			for j, v := range got[i] {
				if v != j {
					return false
				}
			}
		}
		return q.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// PumpAll serves its readers in the order they were attached, on every
// pump: the RIB branch and the peer groups hear each change in one fixed
// order, not in a map's.
func TestFanoutPumpsInAttachOrder(t *testing.T) {
	q := NewFanoutQueue[int]()
	var heard []int
	for id := 0; id < 8; id++ {
		q.AddReader(func(int) bool { heard = append(heard, id); return true })
	}
	want := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for pump := 0; pump < 100; pump++ {
		heard = heard[:0]
		q.Push(pump)
		q.PumpAll()
		if !slices.Equal(heard, want) {
			t.Fatalf("pump %d served the readers in the order %v, want %v", pump, heard, want)
		}
	}
}

// A deliver that detaches readers, itself included, or attaches one makes
// the pump skip no reader and serve none twice: a detached reader hears
// nothing more, and one attached mid-pump is served after the others.
func TestFanoutReadersChangeDuringPump(t *testing.T) {
	q := NewFanoutQueue[int]()
	type heard struct{ reader, v int }
	var got []heard
	readers := make([]*FanoutReader[int], 6)
	var late *FanoutReader[int]
	for id := range readers {
		readers[id] = q.AddReader(func(v int) bool {
			got = append(got, heard{id, v})
			if id == 2 && v == 0 {
				q.RemoveReader(readers[1]) // served already
				q.RemoveReader(readers[2]) // itself
				q.RemoveReader(readers[4]) // not yet served
				late = q.AddReader(func(v int) bool { got = append(got, heard{6, v}); return true })
			}
			return true
		})
	}
	q.Push(0)
	q.PumpAll()
	want := []heard{{0, 0}, {1, 0}, {2, 0}, {3, 0}, {5, 0}}
	if !slices.Equal(got, want) {
		t.Fatalf("the first pump delivered %v, want %v", got, want)
	}
	got = nil
	q.Push(1)
	q.PumpAll()
	want = []heard{{0, 1}, {3, 1}, {5, 1}, {6, 1}}
	if !slices.Equal(got, want) || late.Backlog() != 0 || q.Len() != 0 {
		t.Fatalf("the second pump delivered %v (want %v); late backlog %d, queue %d (want 0, 0)",
			got, want, late.Backlog(), q.Len())
	}
}

func TestOpString(t *testing.T) {
	if OpAdd.String() != "add" || OpReplace.String() != "replace" || OpDelete.String() != "delete" {
		t.Fatal("op names wrong")
	}
	if Op(99).String() == "" {
		t.Fatal("unknown op empty")
	}
}
