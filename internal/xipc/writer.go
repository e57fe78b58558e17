package xipc

import (
	"encoding/binary"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"xorp/internal/xrl"
)

// Write coalescing (the batching half of the Figure-9 fast path). Every
// frame used to cost two write syscalls (length prefix, then payload);
// with a pipeline window of 100 that is 200 syscalls per batch and the
// kernel crossing dominates. A frameWriter instead encodes frames into a
// pending batch buffer and a dedicated goroutine flushes the whole batch
// with one Write: while one flush is on the wire, every frame appended
// behind it coalesces into the next flush. Steady state is ~1 syscall per
// batch and zero allocations (the two batch buffers are reused forever).

// maxPendingWrite bounds the pending batch. Appending past the bound
// blocks the caller until the writer drains, restoring the backpressure a
// direct blocking Write used to provide.
const maxPendingWrite = 4 << 20

// writeTimeout bounds one coalesced flush write. A wedged peer — socket
// open but never reading — otherwise blocks the flush goroutine forever
// once the kernel send buffer fills, and callers learn of the dead
// endpoint only through the much slower per-request reply timeout. A
// missed deadline fails the writer, which fails the sender: every pending
// request gets a prompt CodeSendFailed. A var so tests can shrink it.
var writeTimeout = 30 * time.Second

// I/O op counters, package-wide, for the Figure-9 syscall column. Each
// counted op corresponds to one read/write syscall on a transport socket
// (a batch delivered in one segment counts once however many frames it
// carried).
var (
	ioWrites atomic.Uint64
	ioReads  atomic.Uint64
)

// IOStats returns the number of socket write and read ops performed by
// all xipc transports since the process started.
func IOStats() (writes, reads uint64) {
	return ioWrites.Load(), ioReads.Load()
}

// frameWriter owns all writes to one connection.
type frameWriter struct {
	conn  net.Conn
	onErr func(error) // invoked once, from the flush goroutine, on write failure

	mu     sync.Mutex
	cond   *sync.Cond
	pend   []byte // encoded frames waiting for the next flush
	closed bool
	err    error
}

func newFrameWriter(conn net.Conn, onErr func(error)) *frameWriter {
	w := &frameWriter{conn: conn, onErr: onErr}
	w.cond = sync.NewCond(&w.mu)
	go w.flushLoop()
	return w
}

// writeRequest encodes req as one length-prefixed frame into the pending
// batch. An encoding error rolls the batch back and is returned; the
// connection stays usable. A closed or failed writer returns its terminal
// error.
func (w *frameWriter) writeRequest(req *xrl.Request) error {
	dst, start, err := w.begin()
	if err != nil {
		return err
	}
	dst, err = xrl.AppendRequest(dst, req)
	return w.commit(dst, start, err)
}

// writeReply is writeRequest for a reply.
func (w *frameWriter) writeReply(rep *xrl.Reply) error {
	dst, start, err := w.begin()
	if err != nil {
		return err
	}
	dst, err = xrl.AppendReply(dst, rep)
	return w.commit(dst, start, err)
}

// begin opens a frame: it waits out the backpressure bound, then returns
// the pending batch with a length-prefix placeholder appended at start.
// On success the writer stays locked until commit.
func (w *frameWriter) begin() (dst []byte, start int, err error) {
	w.mu.Lock()
	for len(w.pend) > maxPendingWrite && !w.closed {
		w.cond.Wait()
	}
	if w.closed {
		err := w.err
		w.mu.Unlock()
		if err == nil {
			err = net.ErrClosed
		}
		return nil, 0, err
	}
	return append(w.pend, 0, 0, 0, 0), len(w.pend), nil
}

// commit closes the frame begin opened: b is the batch with the payload
// appended, or, when encoding failed with err, as far as it got.
func (w *frameWriter) commit(b []byte, start int, err error) error {
	if err != nil {
		w.pend = b[:start] // keep any growth, drop the partial frame
		w.mu.Unlock()
		return err
	}
	binary.BigEndian.PutUint32(b[start:start+4], uint32(len(b)-start-4))
	w.pend = b
	w.mu.Unlock()
	w.cond.Signal()
	return nil
}

func (w *frameWriter) flushLoop() {
	var out []byte
	w.mu.Lock()
	for {
		for len(w.pend) == 0 && !w.closed {
			w.cond.Wait()
		}
		if w.closed {
			w.mu.Unlock()
			return
		}
		out, w.pend = w.pend, out[:0] // swap: batch everything queued so far
		w.mu.Unlock()
		w.cond.Broadcast() // wake writers blocked on the backpressure bound

		if writeTimeout > 0 {
			w.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		}
		_, err := w.conn.Write(out)
		ioWrites.Add(1)

		w.mu.Lock()
		if err != nil {
			w.err = err
			w.closed = true
			w.mu.Unlock()
			w.cond.Broadcast()
			if w.onErr != nil {
				w.onErr(err)
			}
			return
		}
	}
}

// alive reports whether the writer can still accept frames.
func (w *frameWriter) alive() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return !w.closed
}

// close stops the flush goroutine. Pending unflushed frames are dropped
// (callers close only when tearing the connection down).
func (w *frameWriter) close() {
	w.mu.Lock()
	w.closed = true
	w.mu.Unlock()
	w.cond.Broadcast()
}
