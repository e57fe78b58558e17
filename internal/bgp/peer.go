package bgp

import (
	"fmt"
	"io"
	"net"
	"net/netip"
	"sync"
	"time"

	"xorp/internal/eventloop"
)

// PeerState is the RFC 4271 session state.
type PeerState uint8

// The FSM states.
const (
	StateIdle PeerState = iota
	StateConnect
	StateActive
	StateOpenSent
	StateOpenConfirm
	StateEstablished
)

// String returns the RFC state name.
func (s PeerState) String() string {
	switch s {
	case StateIdle:
		return "Idle"
	case StateConnect:
		return "Connect"
	case StateActive:
		return "Active"
	case StateOpenSent:
		return "OpenSent"
	case StateOpenConfirm:
		return "OpenConfirm"
	case StateEstablished:
		return "Established"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// MsgConn is a message-level BGP transport: a framed, ordered byte stream.
// Real peers use tcpMsgConn; tests use in-memory pipes.
type MsgConn interface {
	// WriteMsg queues one complete BGP message for transmission. It must
	// be safe to call from the event loop and must not block.
	WriteMsg(msg []byte) error
	// Close tears the transport down; the read side reports EOF.
	Close() error
	// Backlog returns the number of bytes queued but unsent, for
	// flow-controlling the fanout reader (slow peers, §5.1.1).
	Backlog() int
}

// PeerConfig configures one peering.
type PeerConfig struct {
	Name      string
	LocalAddr netip.Addr
	PeerAddr  netip.Addr
	PeerAS    uint16
	// DialAddr is the host:port to connect to ("" = passive only).
	DialAddr string
	// HoldTime is the proposed hold time (default 90 s).
	HoldTime time.Duration
	// ConnectRetry is the reconnect interval (default 30 s).
	ConnectRetry time.Duration
	// Passive suppresses outgoing connection attempts.
	Passive bool
	// Group joins the peer to a named peer group: members share one
	// output branch and each outbound UPDATE is encoded once for the
	// whole group ("" = a group of one, the peer alone).
	Group string
}

// Peer runs one peering's FSM. All fields are confined to the process
// event loop; transports deliver events by dispatching onto it.
type Peer struct {
	cfg     PeerConfig
	handle  *PeerHandle
	loop    *eventloop.Loop
	proc    *Process
	state   PeerState
	enabled bool

	conn         MsgConn
	connGen      int // invalidates events from dead transports
	holdTime     time.Duration
	holdTimer    *eventloop.Timer
	kaTimer      *eventloop.Timer
	retryTimer   *eventloop.Timer
	peerin       *PeerIn
	group        *peerGroup       // output branch: cfg.Group's, or the peer's own
	resolver     *NexthopResolver // end of the input branch (RemovePeer unhooks it)
	encBuf       []byte
	statsUpdates int
}

// State returns the FSM state.
func (p *Peer) State() PeerState { return p.state }

// Handle returns the peering identity.
func (p *Peer) Handle() *PeerHandle { return p.handle }

// Enable administratively enables the peering and starts connecting.
func (p *Peer) Enable() {
	if p.enabled {
		return
	}
	p.enabled = true
	p.startConnect()
}

// Disable administratively disables the peering.
func (p *Peer) Disable() {
	p.enabled = false
	p.closeSession("administratively disabled", true)
}

func (p *Peer) startConnect() {
	if !p.enabled || p.conn != nil {
		return
	}
	if p.cfg.Passive || p.cfg.DialAddr == "" {
		p.state = StateActive
		return
	}
	p.state = StateConnect
	gen := p.connGen
	go func() {
		c, err := net.DialTimeout("tcp", p.cfg.DialAddr, 10*time.Second)
		p.loop.Dispatch(func() {
			if gen != p.connGen || !p.enabled || p.conn != nil {
				if err == nil {
					c.Close()
				}
				return
			}
			if err != nil {
				p.scheduleRetry()
				return
			}
			p.adoptConn(newTCPMsgConn(p, c))
		})
	}()
}

func (p *Peer) scheduleRetry() {
	p.state = StateActive
	retry := p.cfg.ConnectRetry
	if retry <= 0 {
		retry = 30 * time.Second
	}
	if p.retryTimer != nil {
		p.retryTimer.Cancel()
	}
	p.retryTimer = p.loop.OneShot(retry, p.startConnect)
}

// AdoptIncoming hands an accepted connection to the FSM (called on loop).
func (p *Peer) AdoptIncoming(c MsgConn) {
	if p.conn != nil || !p.enabled {
		// Connection collision: keep the existing session. (Full RFC
		// 4271 §6.8 collision resolution compares BGP IDs; dropping the
		// new connection is the common simplification.)
		c.Close()
		return
	}
	p.adoptConn(c)
}

func (p *Peer) adoptConn(c MsgConn) {
	p.conn = c
	p.sendOpen()
	p.state = StateOpenSent
	// If no OPEN arrives within a large hold time, give up (RFC: 4 min).
	p.armHoldTimer(4 * time.Minute)
}

func (p *Peer) sendOpen() {
	ht := p.cfg.HoldTime
	if ht <= 0 {
		ht = 90 * time.Second
	}
	open := &OpenMsg{
		Version:  Version,
		AS:       p.proc.cfg.AS,
		HoldTime: uint16(ht / time.Second),
		BGPID:    p.proc.cfg.BGPID,
	}
	p.writeMsg(AppendOpen(p.encBuf[:0], open))
}

func (p *Peer) writeMsg(buf []byte) {
	p.encBuf = buf[:0]
	if p.conn == nil {
		return
	}
	if err := p.conn.WriteMsg(buf); err != nil {
		p.closeSession("write failed: "+err.Error(), p.enabled)
	}
}

// SendEncodedUpdate implements GroupSender: the GroupOut fans one
// pre-encoded byte run out to every member through here. The buffer is the
// group's reusable encode buffer; tcpMsgConn.WriteMsg copies it into its
// own queue synchronously, so no retention happens.
func (p *Peer) SendEncodedUpdate(buf []byte) {
	if p.state != StateEstablished || p.conn == nil {
		return // GroupOut bookkeeping retains state; resync re-sends on establish
	}
	if err := p.conn.WriteMsg(buf); err != nil {
		p.closeSession("write failed: "+err.Error(), p.enabled)
		return
	}
	p.updateBusy()
}

// updateBusy flow-controls this peer's fanout reader from the transport
// backlog (the slow-peer mechanism of §5.1.1).
func (p *Peer) updateBusy() {
	if p.proc == nil || p.proc.fanout == nil {
		return
	}
	const highWater = 256 << 10
	busy := p.conn != nil && p.conn.Backlog() > highWater
	p.proc.fanout.SetBusy(p.cfg.Name, busy)
}

// handleMessage processes one decoded message on the loop.
func (p *Peer) handleMessage(gen int, m *Message) {
	if gen != p.connGen {
		return // stale transport
	}
	switch {
	case m.Open != nil:
		p.handleOpen(m.Open)
	case m.Keepalive:
		p.handleKeepalive()
	case m.Update != nil:
		p.handleUpdate(m.Update)
	case m.Notification != nil:
		p.closeSession(m.Notification.Error(), p.enabled)
	}
}

func (p *Peer) handleOpen(o *OpenMsg) {
	if p.state != StateOpenSent {
		p.notifyAndClose(NotifFSMErr, 0)
		return
	}
	if o.Version != Version {
		p.notifyAndClose(NotifOpenErr, 1)
		return
	}
	if o.AS != p.cfg.PeerAS {
		p.notifyAndClose(NotifOpenErr, 2)
		return
	}
	p.handle.BGPID = o.BGPID
	ht := time.Duration(o.HoldTime) * time.Second
	mine := p.cfg.HoldTime
	if mine <= 0 {
		mine = 90 * time.Second
	}
	if ht == 0 || ht > mine {
		ht = mine
	}
	p.holdTime = ht
	p.writeMsg(AppendKeepalive(p.encBuf[:0]))
	p.state = StateOpenConfirm
	p.armHoldTimer(p.holdTime)
}

func (p *Peer) handleKeepalive() {
	switch p.state {
	case StateOpenConfirm:
		p.established()
	case StateEstablished:
		p.armHoldTimer(p.holdTime)
	default:
		p.notifyAndClose(NotifFSMErr, 0)
	}
}

func (p *Peer) established() {
	p.state = StateEstablished
	p.armHoldTimer(p.holdTime)
	if p.kaTimer != nil {
		p.kaTimer.Cancel()
	}
	ka := p.holdTime / 3
	if ka <= 0 {
		ka = 30 * time.Second
	}
	p.kaTimer = p.loop.Periodic(ka, func() {
		if p.state == StateEstablished {
			p.writeMsg(AppendKeepalive(p.encBuf[:0]))
		}
	})
	// Replay the announced table to the (re)established session.
	p.group.out.ResyncMember(p.handle)
}

func (p *Peer) handleUpdate(u *UpdateMsg) {
	if p.state != StateEstablished {
		p.notifyAndClose(NotifFSMErr, 0)
		return
	}
	p.statsUpdates++
	p.armHoldTimer(p.holdTime)
	if p.proc != nil {
		p.proc.mUpdates.Inc()
	}
	p.peerin.ReceiveUpdate(u, p.proc.cfg.AS)
}

func (p *Peer) armHoldTimer(d time.Duration) {
	if p.holdTimer != nil {
		p.holdTimer.Cancel()
	}
	if d <= 0 {
		return
	}
	p.holdTimer = p.loop.OneShot(d, func() {
		p.notifyAndClose(NotifHoldTimerExpire, 0)
	})
}

func (p *Peer) notifyAndClose(code, subcode uint8) {
	p.writeMsg(AppendNotification(p.encBuf[:0], &NotificationMsg{Code: code, Subcode: subcode}))
	p.closeSession(fmt.Sprintf("sent NOTIFICATION %d/%d", code, subcode), p.enabled)
}

// closeSession tears the session down; restart controls reconnection.
func (p *Peer) closeSession(reason string, restart bool) {
	p.connGen++
	if p.conn != nil {
		p.conn.Close()
		p.conn = nil
	}
	for _, t := range []*eventloop.Timer{p.holdTimer, p.kaTimer, p.retryTimer} {
		if t != nil {
			t.Cancel()
		}
	}
	wasEstablished := p.state == StateEstablished
	p.state = StateIdle
	if wasEstablished {
		// Dynamic deletion stage handoff (§5.1.2).
		p.peerin.PeerDown()
	}
	if restart && p.enabled {
		p.scheduleRetry()
	}
}

// transportClosed is dispatched by transports when the read side dies.
func (p *Peer) transportClosed(gen int, err error) {
	if gen != p.connGen {
		return
	}
	reason := "connection closed"
	if err != nil && err != io.EOF {
		reason = err.Error()
	}
	p.closeSession(reason, p.enabled)
}

// tcpMsgConn frames BGP messages over a TCP connection. Writes are queued
// through an unbounded buffer drained by a writer goroutine, so the event
// loop never blocks; Backlog exposes the queue size for flow control.
type tcpMsgConn struct {
	peer *Peer
	gen  int
	c    net.Conn

	mu      sync.Mutex
	wbuf    []byte
	closed  bool
	writing bool
}

func newTCPMsgConn(p *Peer, c net.Conn) *tcpMsgConn {
	t := &tcpMsgConn{peer: p, gen: p.connGen, c: c}
	go t.readLoop()
	return t
}

func (t *tcpMsgConn) WriteMsg(msg []byte) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return fmt.Errorf("bgp: connection closed")
	}
	t.wbuf = append(t.wbuf, msg...)
	start := !t.writing
	t.writing = true
	t.mu.Unlock()
	if start {
		go t.writeLoop()
	}
	return nil
}

func (t *tcpMsgConn) writeLoop() {
	for {
		t.mu.Lock()
		if len(t.wbuf) == 0 {
			t.writing = false
			if t.closed {
				t.c.Close()
			}
			t.mu.Unlock()
			return
		}
		buf := t.wbuf
		t.wbuf = nil
		t.mu.Unlock()
		if _, err := t.c.Write(buf); err != nil {
			t.mu.Lock()
			t.closed = true
			t.writing = false
			t.mu.Unlock()
			t.c.Close()
			return
		}
	}
}

func (t *tcpMsgConn) Backlog() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.wbuf)
}

// Close drains queued writes (so a final NOTIFICATION gets out) and then
// closes the socket; with nothing queued it closes immediately.
func (t *tcpMsgConn) Close() error {
	t.mu.Lock()
	t.closed = true
	drainInFlight := t.writing
	t.mu.Unlock()
	if !drainInFlight {
		return t.c.Close()
	}
	return nil
}

func (t *tcpMsgConn) readLoop() {
	hdr := make([]byte, headerLen)
	var body []byte
	for {
		if _, err := io.ReadFull(t.c, hdr); err != nil {
			t.peer.loop.Dispatch(func() { t.peer.transportClosed(t.gen, err) })
			return
		}
		msgLen, _, err := HeaderInfo(hdr)
		if err != nil {
			t.peer.loop.Dispatch(func() { t.peer.transportClosed(t.gen, err) })
			return
		}
		if cap(body) < msgLen {
			body = make([]byte, msgLen)
		}
		body = body[:msgLen]
		copy(body, hdr)
		if _, err := io.ReadFull(t.c, body[headerLen:]); err != nil {
			t.peer.loop.Dispatch(func() { t.peer.transportClosed(t.gen, err) })
			return
		}
		m, err := DecodeMessage(body)
		if err != nil {
			t.peer.loop.Dispatch(func() { t.peer.transportClosed(t.gen, err) })
			return
		}
		gen := t.gen
		t.peer.loop.Dispatch(func() { t.peer.handleMessage(gen, m) })
	}
}
