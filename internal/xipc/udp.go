package xipc

import (
	"net"
	"sync"
	"time"

	"xorp/internal/xrl"
)

// The UDP ("sudp") protocol family: one datagram per frame, deliberately
// stop-and-wait. The paper keeps its first (non-pipelining) XRL transport
// in the evaluation to show the effect of request pipelining (Figure 9:
// UDP is markedly slower than TCP even on the loopback); we reproduce
// that behaviour, including its lack of retransmission.

// maxDatagram is the largest reply/request datagram handled.
const maxDatagram = 64 << 10

// ListenUDP starts the router's UDP listener on addr.
func (r *Router) ListenUDP(addr string) error {
	uaddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return err
	}
	pc, err := net.ListenUDP("udp", uaddr)
	if err != nil {
		return err
	}
	l := &udpListener{router: r, pc: pc}
	r.mu.Lock()
	r.udpLn = l
	r.mu.Unlock()
	go l.readLoop()
	return nil
}

type udpListener struct {
	router *Router
	pc     *net.UDPConn
	out    []byte // the reply being encoded: replies are written on the loop, one at a time
}

func (l *udpListener) addr() string { return l.pc.LocalAddr().String() }

func (l *udpListener) readLoop() {
	buf := make([]byte, maxDatagram)
	for {
		n, from, err := l.pc.ReadFromUDP(buf)
		ioReads.Add(1)
		if err != nil {
			return
		}
		// ParseRequest detaches from the reused datagram buffer.
		req := new(xrl.Request)
		if xrl.ParseRequest(buf[:n], req) != nil {
			continue // drop malformed datagrams
		}
		r := l.router
		r.loop.Dispatch(func() {
			var rep xrl.Reply
			r.serve(req, &rep)
			out, err := xrl.AppendReply(l.out[:0], &rep)
			if err != nil {
				return
			}
			if cap(out) <= maxDatagram {
				l.out = out // kept for the next reply, unless one huge one grew it
			}
			l.pc.WriteToUDP(out, from)
			ioWrites.Add(1)
		})
	}
}

func (l *udpListener) close() { l.pc.Close() }

// udpSender sends requests stop-and-wait: a single request is in flight;
// the rest queue behind it.
type udpSender struct {
	router *Router
	conn   *net.UDPConn

	mu       sync.Mutex
	inflight *udpPending
	queue    []*udpPending
	dead     bool
}

// udpPending is one request on its way through the stop-and-wait queue.
// The reader and loss-timer goroutines move it along by its encoded form;
// the call's record is looked at on the loop only (complete).
type udpPending struct {
	c     *call
	seq   uint32 // c.req.Seq as sent: c has moved on once they differ
	wire  []byte // the encoded request
	timer *time.Timer
}

// udpLossTimeout bounds how long a lost datagram may stall the
// stop-and-wait queue. There is no retransmission (as in the paper's
// prototype); the request simply fails.
const udpLossTimeout = 10 * time.Second

func newUDPSender(r *Router, addr string) (*udpSender, *xrl.Error) {
	uaddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, &xrl.Error{Code: xrl.CodeSendFailed, Note: err.Error()}
	}
	conn, err := net.DialUDP("udp", nil, uaddr)
	if err != nil {
		return nil, &xrl.Error{Code: xrl.CodeSendFailed, Note: err.Error()}
	}
	s := &udpSender{router: r, conn: conn}
	go s.readLoop()
	return s, nil
}

func (s *udpSender) send(c *call) {
	// Encode now, on the loop: by the time a queued request is
	// transmitted its record may belong to another call.
	wire, err := xrl.AppendRequest(nil, &c.req)
	if err != nil {
		s.router.finish(c, nil, &xrl.Error{Code: xrl.CodeSendFailed, Note: err.Error()})
		return
	}
	s.mu.Lock()
	if s.dead {
		s.mu.Unlock()
		s.router.finish(c, nil, &xrl.Error{Code: xrl.CodeSendFailed, Note: "udp sender closed"})
		return
	}
	p := &udpPending{c: c, seq: c.req.Seq, wire: wire}
	if s.inflight != nil {
		s.queue = append(s.queue, p)
		s.mu.Unlock()
		return
	}
	s.inflight = p
	s.mu.Unlock()
	s.transmit(p)
}

// forget has nothing to remove: a request stays in the stop-and-wait
// queue until its turn has passed, and complete tells by the sequence
// number that its call is over.
func (s *udpSender) forget(*call) {}

func (s *udpSender) proto() string { return xrl.ProtoSUDP }

// completeLater finishes p's call on the loop, unless the call is over
// already (it timed out, and the record may since carry another).
func (s *udpSender) completeLater(p *udpPending, args xrl.Args, err *xrl.Error) {
	s.router.loop.Dispatch(func() {
		if p.c.via == s && p.c.req.Seq == p.seq {
			s.router.finish(p.c, args, err)
		}
	})
}

func (s *udpSender) transmit(p *udpPending) {
	_, err := s.conn.Write(p.wire)
	ioWrites.Add(1)
	if err == nil {
		// Arm the loss timer under the lock: the reply may already have
		// arrived on readLoop, which reads p.timer while holding mu.
		s.mu.Lock()
		if s.inflight == p {
			p.timer = time.AfterFunc(udpLossTimeout, func() { s.giveUp(p) })
		}
		s.mu.Unlock()
		return
	}
	s.mu.Lock()
	s.inflight = nil
	next := s.popLocked()
	s.mu.Unlock()
	s.completeLater(p, nil, &xrl.Error{Code: xrl.CodeSendFailed, Note: err.Error()})
	if next != nil {
		s.transmit(next)
	}
}

func (s *udpSender) popLocked() *udpPending {
	if len(s.queue) == 0 {
		return nil
	}
	next := s.queue[0]
	s.queue[0] = nil
	s.queue = s.queue[1:]
	s.inflight = next
	return next
}

func (s *udpSender) readLoop() {
	buf := make([]byte, maxDatagram)
	for {
		n, err := s.conn.Read(buf)
		ioReads.Add(1)
		if err != nil {
			s.failAll("udp read: " + err.Error())
			return
		}
		// ParseReply detaches from the reused datagram buffer.
		rep := new(xrl.Reply)
		if xrl.ParseReply(buf[:n], rep) != nil {
			continue
		}
		s.mu.Lock()
		p := s.inflight
		if p == nil || p.seq != rep.Seq {
			s.mu.Unlock()
			continue // stray or duplicate reply
		}
		s.inflight = nil
		if p.timer != nil {
			p.timer.Stop()
		}
		next := s.popLocked()
		s.mu.Unlock()
		var xe *xrl.Error
		if rep.Code != xrl.CodeOkay {
			xe = &xrl.Error{Code: rep.Code, Note: rep.Note}
		}
		s.completeLater(p, rep.Args, xe)
		if next != nil {
			s.transmit(next)
		}
	}
}

// giveUp abandons a presumed-lost datagram so queued requests can proceed.
func (s *udpSender) giveUp(p *udpPending) {
	s.mu.Lock()
	if s.inflight != p {
		s.mu.Unlock()
		return
	}
	s.inflight = nil
	next := s.popLocked()
	s.mu.Unlock()
	s.completeLater(p, nil, &xrl.Error{Code: xrl.CodeReplyTimeout, Note: "udp datagram presumed lost"})
	if next != nil {
		s.transmit(next)
	}
}

func (s *udpSender) failAll(note string) {
	s.mu.Lock()
	if s.dead {
		s.mu.Unlock()
		return
	}
	s.dead = true
	var all []*udpPending
	if s.inflight != nil {
		all = append(all, s.inflight)
		s.inflight = nil
	}
	all = append(all, s.queue...)
	s.queue = nil
	s.mu.Unlock()

	s.router.dropSender(s)
	for _, p := range all {
		s.completeLater(p, nil, &xrl.Error{Code: xrl.CodeSendFailed, Note: note})
	}
}

func (s *udpSender) close() { s.conn.Close() }
