package xipc

import (
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xorp/internal/eventloop"
	"xorp/internal/xrl"
)

// Tests of the call record (call.go): what one XRL costs now that a
// reused record carries it, and that reusing records changed nothing a
// caller can see.

// stubFinder is a Finder stand-in on a Hub (package finder imports this
// one): it answers finder/1.0/resolve from a function and counts the
// questions.
type stubFinder struct {
	router   *Router
	resolves int
}

func newStubFinder(loop *eventloop.Loop, hub *Hub, answer func(target, command string) (xrl.Args, error)) *stubFinder {
	f := &stubFinder{router: NewRouter("finder_process", loop)}
	t := NewTarget(FinderTargetName, "finder")
	t.Register("finder", "1.0", "resolve", func(args xrl.Args) (xrl.Args, error) {
		f.resolves++
		target, _ := args.TextArg("target")
		command, _ := args.TextArg("command")
		return answer(target, command)
	})
	f.router.AddTarget(t)
	f.router.AttachHub(hub)
	return f
}

// resolution builds a resolve reply.
func resolution(instance, key string, endpoints ...string) xrl.Args {
	eps := make([]xrl.Atom, len(endpoints))
	for i, ep := range endpoints {
		eps[i] = xrl.Text("", ep)
	}
	return xrl.Args{xrl.Text("instance", instance), xrl.Text("key", key), xrl.List("endpoints", eps...)}
}

func simLoop() *eventloop.Loop { return eventloop.New(eventloop.NewSimClock(time.Unix(0, 0))) }

func fourAtoms() []xrl.Atom {
	return []xrl.Atom{xrl.U32("a0", 0), xrl.U32("a1", 1), xrl.Text("a2", "two"), xrl.Bool("a3", true)}
}

func TestIntraHopAllocs(t *testing.T) {
	loop, hub := simLoop(), NewHub()
	newStubFinder(loop, hub, func(string, string) (xrl.Args, error) {
		return resolution("sink", "", xrl.ProtoIntra+"|"+hub.ID()), nil
	})
	recv := NewRouter("receiver", loop)
	handled := 0
	tgt := NewTarget("sink", "sink")
	tgt.Register("bench", "1.0", "sink", func(xrl.Args) (xrl.Args, error) { handled++; return nil, nil })
	recv.AddTarget(tgt)
	recv.AttachHub(hub)
	send := NewRouter("sender", loop)
	send.AttachHub(hub)

	call := xrl.New("sink", "bench", "1.0", "sink", fourAtoms()...)
	replies := 0
	cb := func(_ xrl.Args, err *xrl.Error) {
		if err != nil {
			t.Errorf("intra call: %v", err)
		}
		replies++
	}
	round := func() {
		send.Send(call, cb)
		loop.RunPending()
	}
	round() // resolves, caches, makes the record and its timer
	// The parent of this change paid about ten allocations here; the
	// bound leaves one for whatever the runtime does around a map.
	if allocs := testing.AllocsPerRun(1000, round); allocs > 1 {
		t.Fatalf("intra-process round trip allocates %.2f objects, want <= 1", allocs)
	}
	if handled != 1002 || replies != 1002 {
		t.Fatalf("%d handled, %d replies, want 1002 of each", handled, replies)
	}
}

// tcpPair is a receiver Router listening on TCP loopback with a
// bench/1.0/sink target, and a sender Router that resolves it through a
// stub Finder; each on a real loop of its own.
func tcpPair(t *testing.T) (send *Router, sendLoop *eventloop.Loop) {
	t.Helper()
	recvLoop := eventloop.New(nil)
	recv := NewRouter("receiver", recvLoop)
	tgt := NewTarget("sink", "sink")
	tgt.Register("bench", "1.0", "sink", func(xrl.Args) (xrl.Args, error) { return nil, nil })
	recv.AddTarget(tgt)
	if err := recv.ListenTCP("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	sendLoop, hub := eventloop.New(nil), NewHub()
	newStubFinder(sendLoop, hub, func(string, string) (xrl.Args, error) {
		return resolution("sink", "", recv.Endpoints()[0]), nil
	})
	send = NewRouter("sender", sendLoop)
	send.AttachHub(hub)
	go recvLoop.Run()
	go sendLoop.Run()
	t.Cleanup(func() {
		send.Close()
		recv.Close()
		sendLoop.Stop()
		recvLoop.Stop()
	})
	return send, sendLoop
}

func TestTCPRoundTripAllocs(t *testing.T) {
	send, sendLoop := tcpPair(t)
	call := xrl.New("sink", "bench", "1.0", "sink", fourAtoms()...)
	if _, err := send.Call(call); err != nil {
		t.Fatal(err)
	}
	for _, window := range []int{1, 100} {
		const total = 10000
		var sent, completed int // on the sender's loop
		done := make(chan struct{})
		var fire func()
		reply := func(_ xrl.Args, err *xrl.Error) {
			if err != nil {
				t.Errorf("window %d: %v", window, err)
			}
			if completed++; completed == total {
				close(done)
				return
			}
			fire()
		}
		fire = func() {
			for sent < total && sent-completed < window {
				sent++
				send.SendFromLoop(call, reply)
			}
		}
		run := func(n int) {
			sent, completed, done = total-n, total-n, make(chan struct{})
			sendLoop.Dispatch(fire)
			<-done
		}
		run(2 * window) // records, timers, buffers and the pending table grow here
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		run(total)
		runtime.ReadMemStats(&m1)
		// Everything the process allocates counts: both loops, both
		// connection readers, both writers.
		if per := float64(m1.Mallocs-m0.Mallocs) / total; per > 4 {
			t.Errorf("window %d: %.2f allocations per TCP round trip, want <= 4", window, per)
		}
	}
}

// silentPeer is a TCP endpoint that reads requests and answers only when
// told to.
type silentPeer struct {
	ln   net.Listener
	mu   sync.Mutex
	conn net.Conn
	seqs []uint32 // of the requests read so far
}

func newSilentPeer(t *testing.T) *silentPeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &silentPeer{ln: ln}
	t.Cleanup(func() {
		ln.Close()
		p.mu.Lock()
		if p.conn != nil {
			p.conn.Close()
		}
		p.mu.Unlock()
	})
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		p.conn = conn
		p.mu.Unlock()
		for {
			var hdr [4]byte
			if _, err := io.ReadFull(conn, hdr[:]); err != nil {
				return
			}
			frame := make([]byte, binary.BigEndian.Uint32(hdr[:]))
			if _, err := io.ReadFull(conn, frame); err != nil {
				return
			}
			var req xrl.Request
			if xrl.ParseRequest(frame, &req) != nil {
				return
			}
			p.mu.Lock()
			p.seqs = append(p.seqs, req.Seq)
			p.mu.Unlock()
		}
	}()
	return p
}

func (p *silentPeer) requests() []uint32 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]uint32(nil), p.seqs...)
}

func (p *silentPeer) reply(t *testing.T, seq uint32) {
	t.Helper()
	frame, err := xrl.AppendReply([]byte{0, 0, 0, 0}, &xrl.Reply{Seq: seq, Code: xrl.CodeOkay})
	if err != nil {
		t.Fatal(err)
	}
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, err := p.conn.Write(frame); err != nil {
		t.Fatal(err)
	}
}

// driveUntil runs a test-driven loop until cond holds: other goroutines
// (connection readers) feed it, so there is something to wait for.
func driveUntil(t *testing.T, loop *eventloop.Loop, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		if loop.RunPending() == 0 {
			time.Sleep(time.Millisecond)
		}
	}
}

func TestStaleReplyAfterTimeout(t *testing.T) {
	// TCP: a peer that accepts and never answers. Every call must time
	// out on the loop clock and leave nothing behind in the sender's
	// pending table (it used to keep the entry until the connection
	// died); a reply that comes after all is dropped, also when the
	// timed-out record is already carrying another call.
	t.Run("tcp", func(t *testing.T) {
		peer := newSilentPeer(t)
		loop := simLoop()
		r := NewRouter("sender", loop)
		defer r.Close()
		r.SetTimeout(time.Second)
		x := resolvedTCP(peer.ln.Addr().String(), "echo", fourAtoms()...)

		const n = 20
		timeouts, others := 0, 0
		for i := 0; i < n; i++ {
			r.Send(x, func(_ xrl.Args, err *xrl.Error) {
				if err != nil && err.Code == xrl.CodeReplyTimeout &&
					err.Note == "stcp reply timeout for test/1.0/echo" {
					timeouts++
				} else {
					others++
				}
			})
		}
		loop.RunPending()
		driveUntil(t, loop, "the peer to read every request", func() bool { return len(peer.requests()) == n })
		if timeouts+others != 0 {
			t.Fatalf("%d callbacks before the timeout", timeouts+others)
		}
		loop.RunFor(2 * time.Second)
		if timeouts != n || others != 0 {
			t.Fatalf("%d timeouts and %d other outcomes, want %d timeouts", timeouts, others, n)
		}
		r.mu.Lock()
		var s *tcpSender
		for _, v := range r.senders {
			s = v.(*tcpSender)
		}
		r.mu.Unlock()
		if s == nil || len(s.pending) != 0 {
			t.Fatalf("pending table holds %d entries after every call timed out", len(s.pending))
		}

		// A fresh call takes one of the released records. The peer then
		// answers a timed-out request first and the fresh one second: only
		// the fresh callback may run, once, with success.
		fresh := 0
		r.Send(x, func(_ xrl.Args, err *xrl.Error) {
			if err != nil {
				t.Errorf("fresh call: %v", err)
			}
			fresh++
		})
		loop.RunPending()
		driveUntil(t, loop, "the fresh request", func() bool { return len(peer.requests()) == n+1 })
		seqs := peer.requests()
		peer.reply(t, seqs[0])
		peer.reply(t, seqs[0]) // and a duplicate
		peer.reply(t, seqs[n])
		driveUntil(t, loop, "the fresh reply", func() bool { return fresh > 0 })
		peer.reply(t, seqs[n]) // a duplicate of the fresh reply, after its record was released
		r.Send(x, nil)         // ordered behind it on the connection
		loop.RunPending()
		driveUntil(t, loop, "the last request", func() bool { return len(peer.requests()) == n+2 })
		peer.reply(t, peer.requests()[n+1])
		driveUntil(t, loop, "the last reply", func() bool { return len(s.pending) == 0 })
		if fresh != 1 || timeouts != n || others != 0 {
			t.Fatalf("after late replies: fresh ran %d times, %d timeouts, %d others", fresh, timeouts, others)
		}
	})

	// Intra: the destination's loop is stuck in a handler while the
	// sender's clock runs past the timeout. The record is at the far loop,
	// so it must not be reused until it has come home; its late reply
	// must not reach the caller a second time, nor any other caller.
	t.Run("intra", func(t *testing.T) {
		loop, hub := simLoop(), NewHub()
		newStubFinder(loop, hub, func(string, string) (xrl.Args, error) {
			return resolution("slow", "", xrl.ProtoIntra+"|"+hub.ID()), nil
		})
		farLoop := eventloop.New(nil)
		far := NewRouter("far", farLoop)
		gate, entered := make(chan struct{}), make(chan struct{}, 16)
		tgt := NewTarget("slow", "slow")
		tgt.Register("test", "1.0", "echo", func(args xrl.Args) (xrl.Args, error) {
			entered <- struct{}{}
			<-gate
			return args, nil
		})
		far.AddTarget(tgt)
		far.AttachHub(hub)
		go farLoop.Run()
		defer farLoop.Stop()

		near := NewRouter("near", loop)
		near.AttachHub(hub)
		near.SetTimeout(time.Second)

		type outcome struct {
			calls int
			v     uint32
			err   *xrl.Error
		}
		results := make([]outcome, 3)
		send := func(i int) {
			near.Send(xrl.New("slow", "test", "1.0", "echo", xrl.U32("v", uint32(i))),
				func(args xrl.Args, err *xrl.Error) {
					results[i].calls++
					results[i].v, _ = args.U32Arg("v")
					results[i].err = err
				})
			loop.RunPending()
		}
		send(0)
		<-entered // the far loop is inside the handler, reading the record's request
		loop.RunFor(2 * time.Second)
		if r := results[0]; r.calls != 1 || r.err == nil || r.err.Code != xrl.CodeReplyTimeout {
			t.Fatalf("first call after the timeout: %+v", r)
		}
		// Sent while the first record is still away: these must not be
		// handed it.
		send(1)
		send(2)
		close(gate) // the far loop answers all three
		driveUntil(t, loop, "the two live replies", func() bool { return results[1].calls+results[2].calls == 2 })
		driveUntil(t, loop, "the stale record to come home", func() bool {
			near.mu.Lock()
			defer near.mu.Unlock()
			return near.nfree >= 3 // the resolve query's record was the first
		})
		for i, want := range []outcome{{1, 0, results[0].err}, {1, 1, nil}, {1, 2, nil}} {
			if results[i] != want {
				t.Errorf("call %d: %+v, want %+v", i, results[i], want)
			}
		}
	})
}

func TestCallRecordReuseKeepsSemantics(t *testing.T) {
	loop, hub := simLoop(), NewHub()
	peerRouter := NewRouter("peer_process", loop)
	var order []string
	addPeer := func(name string) *Target {
		tgt := NewTarget(name, "peer")
		for _, m := range []string{"m1", "m2"} {
			tgt.Register("test", "1.0", m, func(args xrl.Args) (xrl.Args, error) {
				order = append(order, name+"/"+m)
				return args, nil
			})
		}
		peerRouter.AddTarget(tgt)
		return tgt
	}
	addPeer("peer")
	addPeer("peer2").SetMethodKey("test/1.0/m1", "k1")
	peerRouter.AttachHub(hub)

	intra := xrl.ProtoIntra + "|" + hub.ID()
	answers := map[string][]xrl.Args{} // per target, consumed in order; the last one repeats
	finder := newStubFinder(loop, hub, func(target, _ string) (xrl.Args, error) {
		q := answers[target]
		if len(q) == 0 {
			return nil, &xrl.Error{Code: xrl.CodeResolveFailed, Note: "no target " + target}
		}
		if len(q) > 1 {
			answers[target] = q[1:]
		}
		return q[0], nil
	})
	r := NewRouter("caller", loop)
	r.AttachHub(hub)

	// Every callback runs inside a drain of the caller's loop — never
	// inside Send — and exactly once.
	driving := false
	run := func(d time.Duration) {
		driving = true
		loop.RunFor(d)
		driving = false
	}
	type result struct {
		calls int
		err   *xrl.Error
	}
	send := func(how func(xrl.XRL, Callback), x xrl.XRL) *result {
		res := &result{}
		how(x, func(_ xrl.Args, err *xrl.Error) {
			if !driving {
				t.Errorf("%s/%s: callback outside the loop's drain", x.Target, x.Method)
			}
			res.calls++
			res.err = err
		})
		if res.calls != 0 {
			t.Errorf("%s/%s: called back before Send returned", x.Target, x.Method)
		}
		return res
	}
	check := func(what string, res *result, code xrl.ErrorCode, resolves int) {
		t.Helper()
		got := xrl.CodeOkay
		if res.err != nil {
			got = res.err.Code
		}
		if res.calls != 1 || got != code || finder.resolves != resolves {
			t.Errorf("%s: %d callbacks, %v, %d resolves; want 1, %v, %d",
				what, res.calls, got, finder.resolves, code, resolves)
		}
		finder.resolves = 0
	}

	// Per-target order across a cold resolution: m2 is cached, m1 is not;
	// m1 sent first must still be handled first.
	answers["peer"] = []xrl.Args{resolution("peer", "", intra)}
	res := send(r.Send, xrl.New("peer", "test", "1.0", "m2"))
	run(0)
	check("first call", res, xrl.CodeOkay, 1)
	order = nil
	cold := send(r.Send, xrl.New("peer", "test", "1.0", "m1"))
	warm := send(r.Send, xrl.New("peer", "test", "1.0", "m2"))
	run(0)
	check("cold m1", cold, xrl.CodeOkay, 1)
	check("warm m2 behind it", warm, xrl.CodeOkay, 0)
	if len(order) != 2 || order[0] != "peer/m1" || order[1] != "peer/m2" {
		t.Errorf("handled in order %v, want m1 before m2", order)
	}

	// A stale cache entry is dropped and re-resolved once, whichever way
	// the staleness shows.
	for _, c := range []struct {
		what  string
		stale xrl.Args
		fresh xrl.Args
		code  xrl.ErrorCode // of the second attempt
	}{
		{"NoSuchTarget, then found", resolution("gone", "", intra), resolution("peer", "", intra), xrl.CodeOkay},
		{"SendFailed, then found", resolution("peer", "", "stcp|127.0.0.1:1"), resolution("peer", "", intra), xrl.CodeOkay},
		{"BadKey, then the right key", resolution("peer2", "old", intra), resolution("peer2", "k1", intra), xrl.CodeOkay},
		{"NoSuchTarget twice", resolution("gone", "", intra), resolution("gone", "", intra), xrl.CodeNoSuchTarget},
		{"BadKey twice", resolution("peer2", "old", intra), resolution("peer2", "older", intra), xrl.CodeBadKey},
	} {
		name := "alias_" + c.what[:3] + c.what[len(c.what)-3:]
		answers[name] = []xrl.Args{c.stale, c.fresh}
		x := xrl.New(name, "test", "1.0", "m1")
		res := send(r.Send, x)
		run(0)
		// One resolution to fill the cache with the stale answer, one
		// after the failure; never a third.
		check(c.what, res, c.code, 2)
	}

	// Idempotent sends retry a missing target Attempts times in all, with
	// backoff drawn from [d/2, d] for d = Base, 2*Base, 4*Base.
	r.SetRetryPolicy(RetryPolicy{Attempts: 4, Base: 100 * time.Millisecond, Max: time.Second})
	idem := send(r.SendIdempotent, xrl.New("nobody", "test", "1.0", "m1"))
	plain := send(r.Send, xrl.New("nobody", "test", "1.0", "m2"))
	run(0)
	check("plain send to a missing target", plain, xrl.CodeResolveFailed, 2) // its own and the idempotent one's first
	run(349 * time.Millisecond)                                              // 50+100+200 is the least three backoffs can take
	if idem.calls != 0 {
		t.Errorf("idempotent send gave up after %d resolves, before three backoffs could have passed", finder.resolves+1)
	}
	run(700*time.Millisecond - 349*time.Millisecond) // 100+200+400 the most
	check("idempotent send to a missing target", idem, xrl.CodeResolveFailed, 3)

	// A target that appears during the backoff is reached.
	idem = send(r.SendIdempotent, xrl.New("late", "test", "1.0", "m1"))
	run(0)
	answers["late"] = []xrl.Args{resolution("peer", "", intra)}
	run(time.Second)
	check("idempotent send to a late target", idem, xrl.CodeOkay, 2)

	// All of that went through a handful of records.
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.nfree == 0 || r.nfree > 4 {
		t.Errorf("free list holds %d records, want the few that were ever in flight at once", r.nfree)
	}
}

// Nor is a closed router handed anything: a call already on its way when
// the receiver closed, its intra record queued on the receiver's loop, is
// refused there, and the sender hears a failure.
func TestClosedRouterHandlesNothing(t *testing.T) {
	sendLoop, recvLoop, hub := simLoop(), simLoop(), NewHub()
	newStubFinder(sendLoop, hub, func(string, string) (xrl.Args, error) {
		return resolution("sink", "", xrl.ProtoIntra+"|"+hub.ID()), nil
	})
	handled := 0
	recv := NewRouter("receiver", recvLoop)
	tgt := NewTarget("sink", "sink")
	tgt.Register("bench", "1.0", "sink", func(xrl.Args) (xrl.Args, error) {
		handled++
		return nil, nil
	})
	recv.AddTarget(tgt)
	recv.AttachHub(hub)
	send := NewRouter("sender", sendLoop)
	send.AttachHub(hub)

	var replies []*xrl.Error
	send.Send(xrl.New("sink", "bench", "1.0", "sink"), func(_ xrl.Args, err *xrl.Error) { replies = append(replies, err) })
	sendLoop.RunPending() // resolved: the record waits on the receiver's loop
	recv.Close()
	recvLoop.RunPending()
	sendLoop.RunPending()
	if handled != 0 || len(replies) != 1 || replies[0] == nil {
		t.Fatalf("a call in flight to a closed router: %d handled (want 0), replies %v (want one failure)", handled, replies)
	}
}

// Close is final. A process that was killed may still have timers on a
// loop it shared, and what they send must not arrive: after Close, Send,
// SendFromLoop and Call finish with an error and no handler runs, whether
// the resolution was cached, the target is local to the closed router, or
// the endpoint is a TCP listener that is still up.
func TestClosedRouterSendsNothing(t *testing.T) {
	sink := func(handled *atomic.Int32) *Target {
		tgt := NewTarget("sink", "sink")
		tgt.Register("bench", "1.0", "sink", func(xrl.Args) (xrl.Args, error) {
			handled.Add(1)
			return nil, nil
		})
		return tgt
	}
	call := xrl.New("sink", "bench", "1.0", "sink")
	wantFailed := func(t *testing.T, how string, err *xrl.Error) {
		t.Helper()
		if err == nil || err.Code != xrl.CodeSendFailed {
			t.Errorf("%s on a closed router: err = %v, want SEND_FAILED", how, err)
		}
	}

	t.Run("hub", func(t *testing.T) {
		loop, hub := simLoop(), NewHub()
		newStubFinder(loop, hub, func(string, string) (xrl.Args, error) {
			return resolution("sink", "", xrl.ProtoIntra+"|"+hub.ID()), nil
		})
		var handled, local atomic.Int32
		recv := NewRouter("receiver", loop)
		recv.AddTarget(sink(&handled))
		recv.AttachHub(hub)
		send := NewRouter("sender", loop)
		own := NewTarget("own", "own")
		own.Register("bench", "1.0", "sink", func(xrl.Args) (xrl.Args, error) {
			local.Add(1)
			return nil, nil
		})
		send.AddTarget(own)
		send.AttachHub(hub)

		send.Send(call, nil) // resolves and caches: the next one needs no Finder
		loop.RunPending()
		if handled.Load() != 1 {
			t.Fatalf("open router: %d calls handled, want 1", handled.Load())
		}
		send.Close()
		replies := 0
		fail := func(how string) Callback {
			return func(_ xrl.Args, err *xrl.Error) {
				replies++
				wantFailed(t, how, err)
			}
		}
		send.Send(call, fail("Send"))
		send.SendFromLoop(call, fail("SendFromLoop"))
		send.SendIdempotent(call, fail("SendIdempotent"))
		send.SendFromLoop(xrl.New("own", "bench", "1.0", "sink"), fail("SendFromLoop to a local target"))
		loop.RunFor(time.Minute)
		if replies != 4 || handled.Load() != 1 || local.Load() != 0 {
			t.Fatalf("after Close: %d replies (want 4), %d handled remotely (want 1), %d locally (want 0)",
				replies, handled.Load(), local.Load())
		}
	})

	t.Run("tcp", func(t *testing.T) {
		recvLoop := eventloop.New(nil)
		recv := NewRouter("receiver", recvLoop)
		var handled atomic.Int32
		recv.AddTarget(sink(&handled))
		if err := recv.ListenTCP("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		sendLoop, hub := eventloop.New(nil), NewHub()
		newStubFinder(sendLoop, hub, func(string, string) (xrl.Args, error) {
			return resolution("sink", "", recv.Endpoints()[0]), nil
		})
		send := NewRouter("sender", sendLoop)
		send.AttachHub(hub)
		go recvLoop.Run()
		go sendLoop.Run()
		defer func() {
			recv.Close()
			sendLoop.Stop()
			recvLoop.Stop()
		}()

		if _, err := send.Call(call); err != nil {
			t.Fatalf("open router: %v", err)
		}
		send.Close()
		_, err := send.Call(call)
		wantFailed(t, "Call", err)
		// A request that left before the reply came back would have been
		// handled by now: the receiver's loop is idle.
		recvLoop.DispatchAndWait(func() {})
		if handled.Load() != 1 {
			t.Fatalf("%d calls handled, want 1: a closed router reached its target over TCP", handled.Load())
		}
	})
}
