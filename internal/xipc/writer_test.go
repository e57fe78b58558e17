package xipc

import (
	"errors"
	"net"
	"testing"
	"time"

	"xorp/internal/eventloop"
	"xorp/internal/xrl"
)

// setWriteTimeout shrinks the flush write deadline for a test.
func setWriteTimeout(t *testing.T, d time.Duration) {
	t.Helper()
	old := writeTimeout
	writeTimeout = d
	t.Cleanup(func() { writeTimeout = old })
}

// A peer that keeps the connection open but never reads must not wedge the
// flush goroutine forever: the write deadline fires and the writer reports
// the failure instead of leaving callers to discover it via reply timeouts.
func TestFrameWriterWedgedPeerFailsFast(t *testing.T) {
	setWriteTimeout(t, 100*time.Millisecond)
	c1, c2 := net.Pipe() // unbuffered: a write blocks until the peer reads
	defer c2.Close()

	errCh := make(chan error, 1)
	w := newFrameWriter(c1, func(err error) { errCh <- err })
	defer w.close()

	if err := w.writeRequest(&xrl.Request{Seq: 1, Target: "stuck"}); err != nil {
		t.Fatalf("writeRequest: %v", err)
	}

	select {
	case err := <-errCh:
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("onErr got %v, want a timeout error", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("write to wedged peer did not fail within the deadline")
	}

	// The writer is terminally failed: later appends error immediately.
	if err := w.writeRequest(&xrl.Request{Seq: 2, Target: "more"}); err == nil {
		t.Fatal("writeRequest succeeded on a failed writer")
	}
}

// End-to-end over a tcpSender: a request sent to a dead (never-reading)
// endpoint surfaces as a prompt CodeSendFailed, and the failure tears the
// sender down so later sends fail immediately too.
func TestTCPSenderDeadEndpointFailsFast(t *testing.T) {
	setWriteTimeout(t, 100*time.Millisecond)
	loop := eventloop.New(nil)
	go loop.Run()
	defer loop.Stop()
	r := NewRouter("wtest_process", loop)
	defer r.Close()

	c1, c2 := net.Pipe()
	defer c2.Close()
	s := startTCPSender(r, c1)

	// send runs on the loop, with the record transportSend would hand it.
	got := make(chan *xrl.Error, 1)
	send := func(seq uint32) {
		loop.Dispatch(func() {
			r.mu.Lock()
			c := r.newCall(xrl.XRL{}, func(_ xrl.Args, err *xrl.Error) { got <- err }, false)
			r.mu.Unlock()
			c.allowRetry = false
			c.req = xrl.Request{Seq: seq, Target: "peer", Command: "test/1.0/echo"}
			c.via = s
			s.send(c)
		})
	}
	send(1)
	select {
	case err := <-got:
		if err == nil || err.Code != xrl.CodeSendFailed {
			t.Fatalf("err = %v, want SEND_FAILED", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("send to dead endpoint did not fail fast")
	}

	// The sender is dead now; a follow-up send fails without touching the
	// connection at all.
	send(2)
	select {
	case err := <-got:
		if err == nil || err.Code != xrl.CodeSendFailed {
			t.Fatalf("follow-up err = %v, want SEND_FAILED", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("send on dead sender did not fail immediately")
	}
}
