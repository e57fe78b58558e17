package core

// FanoutQueue is the paper's fanout stage queue (§5.1.1): route changes
// chosen by the decision process are held in a single queue with one read
// cursor per consumer (each peer's output branch and the RIB branch), so a
// slow peer costs one cursor, not a private copy of every change.
//
// The queue is generic and delivery-agnostic: consumers attach a deliver
// function; PumpAll pushes each reader as many entries as it will take. A
// reader marked busy (e.g. a peer with a full TCP buffer) stops consuming
// until it is marked not busy.
type FanoutQueue[T any] struct {
	entries []T
	base    int // absolute index of entries[0]
	readers map[*FanoutReader[T]]struct{}
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
	return &FanoutQueue[T]{readers: make(map[*FanoutReader[T]]struct{})}
}

// AddReader attaches a consumer positioned at the queue tail (it sees only
// future entries).
func (q *FanoutQueue[T]) AddReader(deliver func(T) bool) *FanoutReader[T] {
	r := &FanoutReader[T]{q: q, pos: q.base + len(q.entries), deliver: deliver}
	q.readers[r] = struct{}{}
	return r
}

// RemoveReader detaches a consumer and trims the queue.
func (q *FanoutQueue[T]) RemoveReader(r *FanoutReader[T]) {
	delete(q.readers, r)
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

// PumpAll advances every non-busy reader as far as it will go and trims
// consumed entries.
func (q *FanoutQueue[T]) PumpAll() {
	for r := range q.readers {
		r.pump()
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
	if len(q.readers) == 0 {
		q.base += len(q.entries)
		q.entries = q.entries[:0]
		return
	}
	min := q.base + len(q.entries)
	for r := range q.readers {
		if r.pos < min {
			min = r.pos
		}
	}
	if n := min - q.base; n > 0 {
		// Shift in place to keep the backing array bounded by the
		// slowest reader's backlog.
		var zero T
		for i := 0; i < n; i++ {
			q.entries[i] = zero
		}
		q.entries = append(q.entries[:0], q.entries[n:]...)
		q.base = min
	}
}
