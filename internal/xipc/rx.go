package xipc

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"

	"xorp/internal/eventloop"
)

// Receive hand-off: writer.go's batching, inbound. A connection's reader
// goroutine used to decode every frame and wake the loop with a closure
// per frame. An rxQueue instead hands the loop whatever one read syscall
// brought — a burst of whole frames, still encoded — with one event: the
// bound drain func. The loop decodes each frame into the connection's one
// reused Request or Reply and handles it on the spot, so a pipelined
// window costs one loop wake-up per burst and no per-frame objects.
//
// Two buffers alternate between the reader and the loop. The reader
// fills one while the loop works through the other, and waits when the
// loop still holds the other: the queue is bounded by construction, and a
// loop that falls behind pushes back on the peer through TCP instead of
// growing a backlog. The buffers start small and double whenever a read
// fills one, so a connection holds memory in proportion to the bursts it
// carries: a pipelined window still arrives in one read, and the mostly
// idle connection to the Finder stays at a few kilobytes.

// maxFrame bounds a frame to keep a corrupted length prefix from
// allocating unbounded memory.
const maxFrame = 16 << 20

// A receive buffer starts at rxBufMin and doubles, up to rxBufMax, each
// time a read fills it. A frame that still does not fit doubles its
// buffer as its bytes arrive, so a length prefix alone claims no memory.
const (
	rxBufMin = 4 << 10
	rxBufMax = 64 << 10
)

type rxQueue struct {
	conn net.Conn
	loop *eventloop.Loop
	// frame handles one received frame, on the loop. The bytes are valid
	// only for the call. An error fails the connection.
	frame func(frame []byte) error
	// fail reports that the connection is unusable, with the read error
	// (from the reader goroutine) or the frame error (from the loop). It
	// may be called more than once.
	fail    func(error)
	drainFn func()

	mu     sync.Mutex
	cond   *sync.Cond
	batch  []byte // whole frames the loop has yet to finish; nil when it has
	closed bool
}

func newRxQueue(conn net.Conn, loop *eventloop.Loop, frame func([]byte) error, fail func(error)) *rxQueue {
	q := &rxQueue{conn: conn, loop: loop, frame: frame, fail: fail}
	q.cond = sync.NewCond(&q.mu)
	q.drainFn = q.drain
	return q
}

// wholeFrames returns where the last whole length-prefixed frame at the
// front of b ends.
func wholeFrames(b []byte) (end int, err error) {
	for len(b)-end >= 4 {
		n := binary.BigEndian.Uint32(b[end:])
		if n > maxFrame {
			return end, fmt.Errorf("xipc: frame of %d bytes exceeds limit", n)
		}
		if len(b)-end < 4+int(n) {
			break
		}
		end += 4 + int(n)
	}
	return end, nil
}

// readLoop is the connection's reader goroutine: it returns, after
// reporting to fail, when the connection or the queue is closed.
func (q *rxQueue) readLoop() {
	size := rxBufMin // what a fresh buffer gets
	buf, spare := make([]byte, size), []byte(nil)
	n := 0 // bytes of an unfinished frame at the front of buf
	for {
		if n == len(buf) { // a frame larger than the buffer is arriving
			buf = append(make([]byte, 0, 2*n), buf...)[:2*n]
		}
		m, err := q.conn.Read(buf[n:])
		ioReads.Add(1)
		if err != nil {
			q.fail(err)
			return
		}
		if n += m; n == len(buf) && size < rxBufMax {
			size *= 2 // the read filled the buffer: more was waiting
		}
		// The frames ahead of a bad length prefix are still the peer's
		// requests: hand them over before giving up on the stream.
		end, err := wholeFrames(buf[:n])
		if end > 0 && !q.handOff(buf[:end]) {
			err = net.ErrClosed
		}
		if err != nil {
			q.fail(err)
			return
		}
		if end == 0 {
			continue
		}
		// The loop has finished the batch before this one, so spare is
		// free again: carry the unfinished tail over and read on there.
		rest := n - end
		if len(spare) < size || len(spare) <= rest {
			spare = make([]byte, max(size, 2*rest))
		}
		n = copy(spare, buf[end:n])
		buf, spare = spare, buf[:cap(buf)]
	}
}

// handOff gives the loop a batch of whole frames, waiting first for it to
// finish the previous one. It reports false when the queue was closed.
func (q *rxQueue) handOff(batch []byte) bool {
	q.mu.Lock()
	for q.batch != nil && !q.closed {
		q.cond.Wait()
	}
	if q.closed {
		q.mu.Unlock()
		return false
	}
	q.batch = batch
	q.mu.Unlock()
	q.loop.Dispatch(q.drainFn)
	return true
}

// drain handles the frames of the current batch. Runs on the loop, once
// per hand-off.
func (q *rxQueue) drain() {
	q.mu.Lock()
	b := q.batch
	q.mu.Unlock()
	for len(b) > 0 {
		n := 4 + int(binary.BigEndian.Uint32(b))
		if err := q.frame(b[4:n]); err != nil {
			q.fail(err) // protocol violation: the rest of the batch goes with the connection
			break
		}
		b = b[n:]
	}
	q.mu.Lock()
	q.batch = nil
	q.mu.Unlock()
	q.cond.Signal()
}

// close releases a reader waiting for the loop (one that has stopped
// never drains). The owner closes the connection as well.
func (q *rxQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Signal()
}
