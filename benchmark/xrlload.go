package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"xorp/internal/eventloop"
	"xorp/internal/finder"
	"xorp/internal/xif"
	"xorp/internal/xipc"
	"xorp/internal/xrl"
)

// loopRunner runs event loops on goroutines of their own and waits for
// them on stop. Only the xrl workload and the transport layer drivers
// use real loops: the cross-goroutine, cross-socket hop is what they
// measure.
type loopRunner struct {
	loops []*eventloop.Loop
	wg    sync.WaitGroup
}

func (lr *loopRunner) start() *eventloop.Loop {
	l := eventloop.New(nil)
	lr.loops = append(lr.loops, l)
	lr.wg.Add(1)
	go func() {
		defer lr.wg.Done()
		l.Run()
	}()
	return l
}

func (lr *loopRunner) stop() {
	for _, l := range lr.loops {
		l.Stop()
	}
	lr.wg.Wait()
}

// xrlPair is a Finder, a receiver Router hosting a bench/1.0 sink and a
// sender Router, each on its own loop, talking over TCP loopback.
type xrlPair struct {
	runner   loopRunner
	finder   *finder.Finder
	recv     *xipc.Router
	send     *xipc.Router
	sendLoop *eventloop.Loop
	sunk     atomic.Int64 // sink invocations
}

const sinkTarget = "benchsink"

func newXRLPair() (*xrlPair, error) {
	x := &xrlPair{}
	x.finder = finder.New(x.runner.start())
	if err := x.finder.ListenTCP("127.0.0.1:0"); err != nil {
		x.close()
		return nil, err
	}
	x.recv = xipc.NewRouter("bench_receiver", x.runner.start())
	if err := x.recv.ListenTCP("127.0.0.1:0"); err != nil {
		x.close()
		return nil, err
	}
	x.recv.SetFinderTCP(x.finder.TCPAddr())
	if err := x.addSink(sinkTarget); err != nil {
		x.close()
		return nil, err
	}
	x.sendLoop = x.runner.start()
	x.send = xipc.NewRouter("bench_sender", x.sendLoop)
	x.send.SetFinderTCP(x.finder.TCPAddr())
	return x, nil
}

// addSink hosts one more bench/1.0 sink target on the receiver and
// registers it with the Finder.
func (x *xrlPair) addSink(name string) error {
	t := xif.NewTarget(name, name)
	xif.BindBench(t, xif.BenchSinkFunc(func(xrl.Args) (xrl.Args, error) {
		x.sunk.Add(1)
		return nil, nil
	}))
	x.recv.AddTarget(t)
	return finder.RegisterTargetSync(x.recv, t, true)
}

func (x *xrlPair) close() {
	for _, r := range []*xipc.Router{x.send, x.recv} {
		if r != nil {
			r.Close()
		}
	}
	if x.finder != nil {
		x.finder.Router().Close()
	}
	x.runner.stop()
}

// xrlLoad: a transaction is xrlPerTxn XRLs to the sink, pipelined with
// xrlWindow outstanding, the argument count cycling 0/4/16.
type xrlLoad struct {
	*xrlPair
	calls [3]xrl.XRL
	done  chan struct{}

	// Confined to the sender's loop while a txn runs; the benchmark
	// goroutine reads them only after the txn's done token.
	sent, completed, errs int
	firing                bool

	wantSunk int64
	fails    int
}

func setupXRL(cfg *config, d *digest) (instance, error) {
	pair, err := newXRLPair()
	if err != nil {
		return nil, err
	}
	x := &xrlLoad{xrlPair: pair, done: make(chan struct{}, 1)}
	for k, args := range generateXRLArgs(cfg.seed, d) {
		x.calls[k] = xif.BenchSpec.NewXRL(sinkTarget, "sink", args...)
		// Resolve through the Finder and open the connection.
		if _, err := x.send.Call(x.calls[k]); err != nil {
			x.close()
			return nil, fmt.Errorf("first call: %v", err)
		}
	}
	x.wantSunk = x.sunk.Load()
	return x, nil
}

func (x *xrlLoad) fire() {
	if x.firing {
		return // re-entered from a reply that completed synchronously
	}
	x.firing = true
	for x.sent < xrlPerTxn && x.sent-x.completed < xrlWindow {
		call := x.calls[x.sent%len(x.calls)]
		x.sent++
		x.send.SendFromLoop(call, x.reply)
	}
	x.firing = false
}

func (x *xrlLoad) reply(_ xrl.Args, err *xrl.Error) {
	x.completed++
	if err != nil {
		x.errs++
	}
	if x.completed == xrlPerTxn {
		x.done <- struct{}{}
		return
	}
	x.fire()
}

func (x *xrlLoad) opsPerTxn() int { return xrlPerTxn }

func (x *xrlLoad) txn(i int, rec *recorder) (time.Duration, time.Duration) {
	root := rec.beginTxn(i)
	sp := rec.begin(spanXRLWindow)
	t0 := time.Now()
	x.sendLoop.Dispatch(func() {
		x.sent, x.completed, x.errs = 0, 0, 0
		x.fire()
	})
	<-x.done
	timed := time.Since(t0)
	rec.end(sp)

	sp = rec.begin(spanCheck)
	x.wantSunk += xrlPerTxn
	if missing := x.wantSunk - x.sunk.Load(); missing != 0 {
		x.fails += int(max(missing, -missing))
		x.wantSunk = x.sunk.Load()
	}
	x.fails += x.errs
	rec.end(sp)
	rec.end(root)
	return timed, timed
}

func (x *xrlLoad) failures() int       { return x.fails }
func (x *xrlLoad) snapshotGen() uint64 { return 0 }
func (x *xrlLoad) trace(*recorder)     {}
