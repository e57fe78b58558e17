package xipc

import (
	"net"
	"slices"
	"sync"
	"sync/atomic"

	"xorp/internal/xrl"
)

// The TCP ("stcp") protocol family: length-prefixed XRL frames over a
// persistent connection. Requests are pipelined — many may be outstanding
// at once, correlated by sequence number — which is what gives TCP its
// near-intra-process throughput in Figure 9. Writes are coalesced
// (writer.go) and reads reach the loop a burst at a time (rx.go), so a
// full pipeline window costs ~1 syscall and one loop wake-up per
// direction instead of one (or two) per frame.

// ListenTCP starts the router's TCP listener on addr (host:port, port 0
// for ephemeral). The resulting endpoint appears in Endpoints().
func (r *Router) ListenTCP(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	l := &tcpListener{router: r, ln: ln, conns: make(map[*tcpServerConn]struct{})}
	r.mu.Lock()
	r.tcpLn = l
	r.mu.Unlock()
	go l.acceptLoop()
	return nil
}

type tcpListener struct {
	router *Router
	ln     net.Listener

	mu    sync.Mutex
	conns map[*tcpServerConn]struct{}
}

func (l *tcpListener) addr() string { return l.ln.Addr().String() }

func (l *tcpListener) acceptLoop() {
	for {
		conn, err := l.ln.Accept()
		if err != nil {
			return // listener closed
		}
		sc := &tcpServerConn{router: l.router, conn: conn}
		sc.rx = newRxQueue(conn, l.router.loop, sc.serveFrame, sc.fail)
		sc.fw = newFrameWriter(conn, sc.fail)
		l.mu.Lock()
		l.conns[sc] = struct{}{}
		l.mu.Unlock()
		go l.serveConn(sc)
	}
}

// serveConn reads pipelined requests until the connection ends. Replies
// are written as handlers complete; those produced within one event-loop
// turn coalesce into one write.
func (l *tcpListener) serveConn(sc *tcpServerConn) {
	sc.rx.readLoop()
	sc.fw.close()
	sc.conn.Close()
	l.mu.Lock()
	delete(l.conns, sc)
	l.mu.Unlock()
}

func (l *tcpListener) close() {
	l.ln.Close()
	l.mu.Lock()
	for sc := range l.conns {
		sc.fail(net.ErrClosed)
	}
	l.mu.Unlock()
}

// tcpServerConn is the serving side of one accepted connection. Every
// request of the connection is decoded into req and answered from rep,
// on the loop, one at a time.
type tcpServerConn struct {
	router *Router
	conn   net.Conn
	fw     *frameWriter
	rx     *rxQueue
	torn   atomic.Bool // set by fail: no later request runs

	req xrl.Request
	rep xrl.Reply
}

// serveFrame decodes, runs and answers one request. Runs on the loop. A
// frame that does not decode is a protocol violation: the error drops the
// connection.
func (sc *tcpServerConn) serveFrame(frame []byte) error {
	// A request read before the connection was torn is not run: its
	// reply could reach no one.
	if sc.torn.Load() {
		return net.ErrClosed
	}
	// ParseRequest interns or copies everything out of frame, and reuses
	// sc.req.Args: the handler's arguments are its own only until it
	// returns.
	if err := xrl.ParseRequest(frame, &sc.req); err != nil {
		return err
	}
	sc.router.serve(&sc.req, &sc.rep)
	if err := sc.fw.writeReply(&sc.rep); err != nil && sc.fw.alive() {
		// Encoding failed; report it in-band.
		sc.rep = xrl.Reply{Seq: sc.req.Seq, Code: xrl.CodeInternal,
			Note: "reply encoding failed: " + err.Error()}
		sc.fw.writeReply(&sc.rep)
	}
	sc.rep.Args = nil // the handler's, not ours to keep alive
	return nil
}

// fail ends the connection; the reader goroutine sees the close and
// cleans up.
func (sc *tcpServerConn) fail(error) {
	sc.torn.Store(true)
	sc.conn.Close()
	sc.rx.close()
}

// tcpSender is the client side of one TCP attachment, with full request
// pipelining.
type tcpSender struct {
	router *Router
	conn   net.Conn
	fw     *frameWriter
	rx     *rxQueue

	// pending maps the sequence number of every request awaiting its
	// reply to the call's record. Loop-confined: send, forget, the reply
	// handler and failPending all run there.
	pending map[uint32]*call
	rep     xrl.Reply // every reply of the connection is decoded into this

	dead          atomic.Bool
	failPendingFn func()
}

func newTCPSender(r *Router, addr string) (*tcpSender, *xrl.Error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, &xrl.Error{Code: xrl.CodeSendFailed, Note: "dial " + addr + ": " + err.Error()}
	}
	return startTCPSender(r, conn), nil
}

// startTCPSender attaches a sender to an established connection.
func startTCPSender(r *Router, conn net.Conn) *tcpSender {
	s := &tcpSender{router: r, conn: conn, pending: make(map[uint32]*call)}
	s.failPendingFn = s.failPending
	s.rx = newRxQueue(conn, r.loop, s.replyFrame, s.fail)
	s.fw = newFrameWriter(conn, s.fail)
	go s.rx.readLoop()
	return s
}

func (s *tcpSender) send(c *call) {
	if s.dead.Load() {
		s.failPending() // the calls pending ahead of c fail, or go again, first
		s.router.finish(c, nil, &xrl.Error{Code: xrl.CodeSendFailed, Note: "connection closed"})
		return
	}
	s.pending[c.req.Seq] = c
	if err := s.fw.writeRequest(&c.req); err != nil {
		s.router.finish(c, nil, &xrl.Error{Code: xrl.CodeSendFailed, Note: err.Error()})
	}
}

// forget removes c's pending entry: answered, failed or timed out, the
// call is over, and a reply that still arrives finds nothing.
func (s *tcpSender) forget(c *call) { delete(s.pending, c.req.Seq) }

func (s *tcpSender) proto() string { return xrl.ProtoSTCP }

// replyFrame decodes one reply and completes the call waiting for it.
// Runs on the loop.
func (s *tcpSender) replyFrame(frame []byte) error {
	// The reply's arguments go to the caller's callback, which owns them
	// from then on: decode into fresh Args, never into the last reply's.
	s.rep.Args = nil
	if err := xrl.ParseReply(frame, &s.rep); err != nil {
		return err
	}
	c, ok := s.pending[s.rep.Seq]
	if !ok {
		return nil // late reply after a timeout, or a duplicate
	}
	var xe *xrl.Error
	if s.rep.Code != xrl.CodeOkay {
		xe = &xrl.Error{Code: s.rep.Code, Note: s.rep.Note}
	}
	s.router.finish(c, s.rep.Args, xe)
	return nil
}

// fail tears the connection down and has the loop fail every pending
// request. Safe from any goroutine, any number of times.
func (s *tcpSender) fail(error) {
	if !s.dead.CompareAndSwap(false, true) {
		return
	}
	s.close()
	s.router.loop.Dispatch(s.failPendingFn)
}

// failPending unregisters the dead sender, so the next request
// reconnects, and fails its pending requests in the order they were
// sent, so that those sent again keep their per-target order. A pending
// request may have run at the target, its reply lost with the
// connection, so only an idempotent one is sent again; any other fails
// to its caller. Runs on the loop, before any send that finds the sender
// dead: no call overtakes the ones still pending.
func (s *tcpSender) failPending() {
	s.router.dropSender(s)
	calls := make([]*call, 0, len(s.pending))
	for _, c := range s.pending {
		calls = append(calls, c)
	}
	slices.SortFunc(calls, func(a, b *call) int { return int(int32(a.req.Seq - b.req.Seq)) })
	for _, c := range calls {
		c.allowRetry = c.allowRetry && c.idem
		s.router.finish(c, nil, &xrl.Error{Code: xrl.CodeSendFailed, Note: "connection lost"})
	}
}

func (s *tcpSender) close() {
	s.fw.close()
	s.conn.Close()
	s.rx.close()
}
