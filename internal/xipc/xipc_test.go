package xipc

import (
	"encoding/binary"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"xorp/internal/eventloop"
	"xorp/internal/xrl"
)

// Direct transport-level tests, including failure injection. Broker-level
// behaviour (resolution, keys, ACLs) is tested in package finder.

func newNode(t *testing.T, name string) (*Router, *eventloop.Loop) {
	t.Helper()
	loop := eventloop.New(nil)
	r := NewRouter(name, loop)
	go loop.Run()
	t.Cleanup(func() {
		r.Close()
		loop.Stop()
	})
	return r, loop
}

func addEcho(r *Router, targetName string) *Target {
	tgt := NewTarget(targetName, targetName)
	tgt.Register("test", "1.0", "echo", func(args xrl.Args) (xrl.Args, error) {
		return args, nil
	})
	r.AddTarget(tgt)
	return tgt
}

// resolvedTCP builds a pre-resolved XRL to a TCP endpoint (bypassing the
// Finder, as an attacker or a static config would).
func resolvedTCP(addr, method string, args ...xrl.Atom) xrl.XRL {
	return xrl.XRL{
		Protocol: xrl.ProtoSTCP, Target: addr,
		Interface: "test", Version: "1.0", Method: method, Args: args,
	}
}

func TestTCPDirectResolvedCall(t *testing.T) {
	recv, _ := newNode(t, "recv")
	addEcho(recv, recv.Name()) // wire target name == endpoint? no: use instance name
	if err := recv.ListenTCP("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	send, _ := newNode(t, "send")

	// A resolved XRL's wire target is the endpoint address; dispatch
	// looks targets up by instance name, so the request must carry the
	// instance. The router uses Target for both; a direct resolved call
	// therefore addresses the instance named like the endpoint — register
	// such a target to prove the path works end to end.
	ep := recv.Endpoints()[0][len(xrl.ProtoSTCP+"|"):]
	addEcho(recv, ep)
	args, err := send.Call(resolvedTCP(ep, "echo", xrl.U32("x", 9)))
	if err != nil {
		t.Fatalf("resolved call: %v", err)
	}
	if v, ok := args.Get("x"); !ok || v.IntVal != 9 {
		t.Fatalf("echo lost args: %v", args)
	}
}

func TestTCPConnectionRefused(t *testing.T) {
	send, _ := newNode(t, "send")
	_, err := send.Call(resolvedTCP("127.0.0.1:1", "echo"))
	if err == nil || err.Code != xrl.CodeSendFailed {
		t.Fatalf("err = %v, want SEND_FAILED", err)
	}
}

func TestTCPServerDropsMalformedFrame(t *testing.T) {
	recv, _ := newNode(t, "recv")
	addEcho(recv, "recvT")
	if err := recv.ListenTCP("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ep := recv.Endpoints()[0][len(xrl.ProtoSTCP+"|"):]
	conn, err := net.Dial("tcp", ep)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Garbage frame: server must close the connection, not crash.
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 5)
	conn.Write(hdr[:])
	conn.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x99})
	buf := make([]byte, 16)
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("server kept the connection after a malformed frame")
	}
	// The router still serves new connections.
	send, _ := newNode(t, "send2")
	addEcho(recv, ep)
	if _, err := send.Call(resolvedTCP(ep, "echo")); err != nil {
		t.Fatalf("router dead after malformed frame: %v", err)
	}
}

func TestTCPOversizedFrameRejected(t *testing.T) {
	recv, _ := newNode(t, "recv")
	if err := recv.ListenTCP("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ep := recv.Endpoints()[0][len(xrl.ProtoSTCP+"|"):]
	conn, err := net.Dial("tcp", ep)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 1<<30) // absurd length prefix
	conn.Write(hdr[:])
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("oversized frame not rejected")
	}
}

func TestTCPPeerResetFailsPendingCalls(t *testing.T) {
	recv, recvLoop := newNode(t, "recv")
	ep := func() string {
		if err := recv.ListenTCP("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		return recv.Endpoints()[0][len(xrl.ProtoSTCP+"|"):]
	}()
	// A slow handler keeps requests pending while we kill the listener.
	tgt := NewTarget(ep, ep)
	block := make(chan struct{})
	tgt.Register("test", "1.0", "stall", func(args xrl.Args) (xrl.Args, error) {
		<-block // blocks the receiver's loop: replies can't be written
		return nil, nil
	})
	recv.AddTarget(tgt)

	send, _ := newNode(t, "send")
	send.SetTimeout(10 * time.Second)
	var wg sync.WaitGroup
	errs := make(chan *xrl.Error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		send.Send(resolvedTCP(ep, "stall"), func(_ xrl.Args, err *xrl.Error) {
			errs <- err
			wg.Done()
		})
	}
	time.Sleep(100 * time.Millisecond)
	recv.Close() // hard close: all pending calls must fail promptly
	close(block)
	recvLoop.Stop()
	waitDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(waitDone)
	}()
	select {
	case <-waitDone:
	case <-time.After(8 * time.Second):
		t.Fatal("pending calls never completed after connection loss")
	}
	close(errs)
	for err := range errs {
		if err == nil {
			t.Fatal("call succeeded despite connection loss")
		}
	}
}

func TestLocalDispatchConcurrentSends(t *testing.T) {
	r, _ := newNode(t, "self")
	addEcho(r, "self")
	var wg sync.WaitGroup
	fail := make(chan *xrl.Error, 200)
	for i := 0; i < 200; i++ {
		wg.Add(1)
		r.Send(xrl.New("self", "test", "1.0", "echo", xrl.U32("i", uint32(i))),
			func(_ xrl.Args, err *xrl.Error) {
				if err != nil {
					fail <- err
				}
				wg.Done()
			})
	}
	wg.Wait()
	close(fail)
	for err := range fail {
		t.Fatalf("local send failed: %v", err)
	}
}

func TestDuplicateMethodRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	tgt := NewTarget("x", "x")
	tgt.Register("i", "1.0", "m", func(a xrl.Args) (xrl.Args, error) { return a, nil })
	tgt.Register("i", "1.0", "m", func(a xrl.Args) (xrl.Args, error) { return a, nil })
}

func TestUDPListenerIgnoresGarbage(t *testing.T) {
	recv, _ := newNode(t, "recv")
	if err := recv.ListenUDP("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ep := recv.Endpoints()[0][len(xrl.ProtoSUDP+"|"):]
	conn, err := net.Dial("udp", ep)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write([]byte{1, 2, 3}) // garbage datagram: silently dropped
	// The listener still answers well-formed requests afterwards.
	addEcho(recv, ep)
	send, _ := newNode(t, "send")
	x := xrl.XRL{Protocol: xrl.ProtoSUDP, Target: ep,
		Interface: "test", Version: "1.0", Method: "echo"}
	if _, err := send.Call(x); err != nil {
		t.Fatalf("UDP listener dead after garbage: %v", err)
	}
}

// TestTornConnectionResendsInOrder tears a TCP connection from the
// server side once the handler of the first of 16 pipelined calls has
// run. The calls pending on it fail in the order they were sent, so the
// ones sent again reach the target in that order; and since a pending
// call may have run already, only the idempotent ones are sent again: no
// other call runs twice. Calls sent once the tear is seen, but before the
// pending ones have failed, never reached the wire: they go again too,
// behind the pending ones.
func TestTornConnectionResendsInOrder(t *testing.T) {
	const (
		inflight = 16   // pending on the connection when it tears
		late     = 4    // sent to the dead connection after the tear
		warm     = 1000 // the i of a warm-up call, which the handler ignores
	)
	recvLoop := eventloop.New(nil)
	recv := NewRouter("receiver", recvLoop)
	if err := recv.ListenTCP("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	var (
		mu   sync.Mutex
		runs []int // the i of every call run, in the order run
		sent = make(chan struct{})
	)
	handler := func(args xrl.Args) (xrl.Args, error) {
		a, _ := args.Get("i")
		i := int(a.IntVal)
		if i == warm {
			return nil, nil
		}
		mu.Lock()
		runs = append(runs, i)
		first := len(runs) == 1
		mu.Unlock()
		if first {
			<-sent // every call is pending on the connection
			recv.mu.Lock()
			ln := recv.tcpLn
			recv.mu.Unlock()
			ln.mu.Lock()
			for sc := range ln.conns {
				sc.fail(net.ErrClosed)
			}
			ln.mu.Unlock()
		}
		return nil, nil
	}
	tgt := NewTarget("sink", "sink")
	tgt.Register("test", "1.0", "put", handler) // not idempotent
	tgt.Register("test", "1.0", "set", handler) // idempotent
	recv.AddTarget(tgt)

	sendLoop, hub := eventloop.New(nil), NewHub()
	newStubFinder(sendLoop, hub, func(string, string) (xrl.Args, error) {
		return resolution("sink", "", recv.Endpoints()[0]), nil
	})
	send := NewRouter("sender", sendLoop)
	send.AttachHub(hub)
	go recvLoop.Run()
	go sendLoop.Run()
	t.Cleanup(func() {
		send.Close()
		recv.Close()
		sendLoop.Stop()
		recvLoop.Stop()
	})
	// Resolve both methods and connect first, so that all the calls are
	// in flight on one connection when it tears.
	for _, method := range []string{"put", "set"} {
		if _, err := send.Call(xrl.New("sink", "test", "1.0", method, xrl.U32("i", warm))); err != nil {
			t.Fatal(err)
		}
	}

	// Below inflight, even i is a put and odd i a set; call 0, the one
	// that tears, is a put. The late calls are puts.
	const n = inflight + late
	errs := make([]*xrl.Error, n)
	replies := make([]int, n)
	var wg sync.WaitGroup
	wg.Add(n)
	reply := func(i int) Callback {
		return func(_ xrl.Args, err *xrl.Error) {
			errs[i] = err
			replies[i]++
			wg.Done()
		}
	}
	for i := 0; i < inflight; i++ {
		method := "put"
		if i%2 == 1 {
			method = "set"
		}
		send.SendArgs(xrl.New("sink", "test", "1.0", method), xrl.Args{xrl.U32("i", uint32(i))},
			reply(i), i%2 == 1)
	}
	// The loop runs this after it has sent the calls: the tear waits for it.
	sendLoop.Dispatch(func() { close(sent) })
	// Then it waits, so that the failure of the pending calls waits too,
	// until the sender has seen the tear, and sends the late calls.
	sendLoop.Dispatch(func() {
		send.mu.Lock()
		var ts *tcpSender
		for _, s := range send.senders {
			ts, _ = s.(*tcpSender)
		}
		send.mu.Unlock()
		for end := time.Now().Add(5 * time.Second); !ts.dead.Load() && time.Now().Before(end); {
			time.Sleep(time.Millisecond)
		}
		for i := inflight; i < n; i++ {
			send.SendFromLoop(xrl.New("sink", "test", "1.0", "put", xrl.U32("i", uint32(i))), reply(i))
		}
	})
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("calls never completed after the connection tore")
	}

	mu.Lock()
	got := append([]int(nil), runs...)
	mu.Unlock()
	// Call 0 ran once on the torn connection and nothing after it ran
	// there. The sets went again in the order they were sent, and the
	// late puts behind them.
	want := []int{0}
	for i := 1; i < inflight; i += 2 {
		want = append(want, i)
	}
	for i := inflight; i < n; i++ {
		want = append(want, i)
	}
	if !slices.Equal(got, want) {
		t.Errorf("handler runs %v, want %v", got, want)
	}
	ran := make([]int, n)
	for _, i := range got {
		ran[i]++
	}
	for i := 0; i < n; i++ {
		if replies[i] != 1 {
			t.Errorf("call %d answered %d times, want 1", i, replies[i])
		}
		switch {
		case i >= inflight:
			if ran[i] != 1 || errs[i] != nil {
				t.Errorf("late put %d ran %d times, err %v; want once, success", i, ran[i], errs[i])
			}
		case i%2 == 0:
			if ran[i] > 1 {
				t.Errorf("put %d ran %d times, want at most 1", i, ran[i])
			}
			if errs[i] == nil || errs[i].Code != xrl.CodeSendFailed {
				t.Errorf("put %d: err %v, want SEND_FAILED", i, errs[i])
			}
		case errs[i] != nil:
			t.Errorf("set %d: err %v, want success on the new connection", i, errs[i])
		}
	}
}
