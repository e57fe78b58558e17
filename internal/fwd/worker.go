package fwd

import (
	"sync"
	"sync/atomic"
)

// flushEvery is how many lookups a worker batches locally before
// flushing into its atomically-readable counters. Between flushes the
// hot loop touches only worker-local state (the FwFwd discipline);
// observers read counters at most flushEvery lookups stale.
const flushEvery = 1024

// Counters is a pool's forwarding counters. Lookups = Hits + Drops; a drop
// is a lookup that found no route (the packet a real data plane would
// discard).
type Counters struct {
	Lookups uint64
	Hits    uint64
	Drops   uint64
}

// worker is one forwarding shard: a goroutine that pins a snapshot
// (Source.Pin) and loops Cursor.Next → Snapshot.Lookup on it for
// flushEvery lookups. All mutable state is worker-local; the published
// counters below are write-mostly atomics the worker flushes periodically
// and anyone may read live.
type worker struct {
	hits  atomic.Uint64
	drops atomic.Uint64
}

// run is the forwarding loop. A burst of flushEvery lookups reads one
// pinned snapshot lock-free, at most a burst stale; after it the worker
// flushes local counts to the atomics and checks for stop.
func (w *worker) run(src Source, cur *Cursor, stop *atomic.Bool) {
	for {
		var hits, drops uint64
		snap := src.Pin()
		for i := 0; i < flushEvery; i++ {
			if _, ok := snap.Lookup(cur.Next()); ok {
				hits++
			} else {
				drops++
			}
		}
		w.hits.Add(hits)
		w.drops.Add(drops)
		if stop.Load() {
			return
		}
	}
}

// Pool runs N workers against one snapshot source and one shared
// traffic ring.
type Pool struct {
	src     Source
	stream  *Stream
	workers []*worker
	stop    atomic.Bool
	wg      sync.WaitGroup
	started bool
}

// NewPool creates (but does not start) a pool of n workers forwarding
// stream traffic against src.
func NewPool(src Source, stream *Stream, n int) *Pool {
	p := &Pool{src: src, stream: stream, workers: make([]*worker, max(n, 1))}
	for i := range p.workers {
		p.workers[i] = &worker{}
	}
	return p
}

// Start launches the worker goroutines. Idempotent until Stop.
func (p *Pool) Start() {
	if p.started {
		return
	}
	p.started = true
	p.stop.Store(false)
	for i, w := range p.workers {
		cur := p.stream.Cursor(i)
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			w.run(p.src, cur, &p.stop)
		}()
	}
}

// Stop signals the workers and waits for them to flush and exit.
func (p *Pool) Stop() {
	if !p.started {
		return
	}
	p.stop.Store(true)
	p.wg.Wait()
	p.started = false
}

// Counters samples and sums every worker's counters (each at most
// flushEvery lookups stale while the pool runs).
func (p *Pool) Counters() Counters {
	var c Counters
	for _, w := range p.workers {
		hits, drops := w.hits.Load(), w.drops.Load()
		c.Hits += hits
		c.Drops += drops
		c.Lookups += hits + drops
	}
	return c
}
