package core

import "slices"

// FanoutQueue is the paper's fanout stage queue (§5.1.1): route changes
// chosen by the decision process are held in a single queue with one read
// cursor per consumer (each peer's output branch and the RIB branch), so a
// slow peer costs one cursor, not a private copy of every change.
//
// The queue is generic and delivery-agnostic: consumers attach a deliver
// function; PumpAll pushes each reader as many entries as it will take. A
// reader marked busy (e.g. a peer with a full TCP buffer) stops consuming
// until it is marked not busy. PumpAll serves the readers in the order
// they were attached, so what one branch is sent never depends on the
// order a map happens to hand out.
type FanoutQueue[T any] struct {
	entries []T
	base    int // absolute index of entries[0]
	// readers in attach order. A reader removed while a pump runs (from
	// a deliver) leaves a nil slot, so no reader moves under the pump;
	// the outermost pump drops the slots as it ends.
	readers []*FanoutReader[T]
	pumping int // PumpAll calls running, nested ones included
}

// FanoutReader is one consumer's cursor into a FanoutQueue.
type FanoutReader[T any] struct {
	q *FanoutQueue[T]
	// pos is the absolute index of the next entry to deliver.
	pos  int
	busy bool
	// deliver consumes one entry; it returns false to stop pumping for
	// now (backpressure without marking busy).
	deliver func(T) bool
}

// NewFanoutQueue returns an empty queue.
func NewFanoutQueue[T any]() *FanoutQueue[T] {
	return &FanoutQueue[T]{}
}

// AddReader attaches a consumer positioned at the queue tail (it sees only
// future entries).
func (q *FanoutQueue[T]) AddReader(deliver func(T) bool) *FanoutReader[T] {
	r := &FanoutReader[T]{q: q, pos: q.base + len(q.entries), deliver: deliver}
	q.readers = append(q.readers, r)
	return r
}

// RemoveReader detaches a consumer and trims the queue.
func (q *FanoutQueue[T]) RemoveReader(r *FanoutReader[T]) {
	if i := slices.Index(q.readers, r); i >= 0 {
		if q.pumping > 0 {
			q.readers[i] = nil
		} else {
			q.readers = slices.Delete(q.readers, i, i+1)
		}
	}
	q.trim()
}

// Push appends an entry. Delivery happens on the next PumpAll.
func (q *FanoutQueue[T]) Push(v T) {
	q.entries = append(q.entries, v)
}

// Len returns the number of entries still held (not yet consumed by the
// slowest reader).
func (q *FanoutQueue[T]) Len() int { return len(q.entries) }

// Head returns the oldest entry still held; the queue must not be empty.
func (q *FanoutQueue[T]) Head() T { return q.entries[0] }

// PumpAll advances every non-busy reader as far as it will go, in attach
// order, and trims consumed entries. A reader attached by a deliver is
// pumped in the same pass, after the others.
func (q *FanoutQueue[T]) PumpAll() {
	q.pumping++
	for i := 0; i < len(q.readers); i++ {
		if r := q.readers[i]; r != nil {
			r.pump()
		}
	}
	if q.pumping--; q.pumping == 0 {
		q.readers = slices.DeleteFunc(q.readers, func(r *FanoutReader[T]) bool { return r == nil })
	}
	q.trim()
}

// Backlog returns how many entries the reader has not yet consumed.
func (r *FanoutReader[T]) Backlog() int {
	return r.q.base + len(r.q.entries) - r.pos
}

// SetBusy marks the reader flow-controlled; PumpAll skips it while busy.
func (r *FanoutReader[T]) SetBusy(busy bool) { r.busy = busy }

// Busy reports the flow-control state.
func (r *FanoutReader[T]) Busy() bool { return r.busy }

func (r *FanoutReader[T]) pump() {
	for !r.busy && r.pos < r.q.base+len(r.q.entries) {
		v := r.q.entries[r.pos-r.q.base]
		if !r.deliver(v) {
			return
		}
		r.pos++
	}
}

// trim drops entries all readers have consumed. With no readers the queue
// empties (changes have nowhere to go).
func (q *FanoutQueue[T]) trim() {
	low := q.base + len(q.entries)
	for _, r := range q.readers {
		if r != nil {
			low = min(low, r.pos)
		}
	}
	if n := low - q.base; n > 0 {
		// Shift in place to keep the backing array bounded by the
		// slowest reader's backlog, and clear the slots it frees, so
		// they pin nothing.
		m := copy(q.entries, q.entries[n:])
		clear(q.entries[m:])
		q.entries, q.base = q.entries[:m], low
	}
}
