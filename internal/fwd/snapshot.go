package fwd

import (
	"net/netip"
	"sync"
	"sync/atomic"

	"xorp/internal/kernel"
	"xorp/internal/rib"
	"xorp/internal/route"
	"xorp/internal/telemetry"
	"xorp/internal/trie"
)

// Snapshot is one FIB version: a generation number and an LPM table of
// route.Stored values, held by value. The Publisher owns one live
// Snapshot, which each commit rewrites in place with the table it leaves
// and the next generation, so a publish allocates nothing; a pinned one
// (Source.Pin) is a fresh Snapshot that never changes, for a reader on
// another goroutine or across commits. Gen is an atomic load, safe
// anywhere; Lookup, Get, Walk and Len read the table plainly.
type Snapshot struct {
	gen atomic.Uint64
	tbl trie.Persistent[route.Stored]
}

// Gen returns the snapshot's generation: the number of publications that
// produced it (the version the publisher started from is generation 0).
func (s *Snapshot) Gen() uint64 { return s.gen.Load() }

// Len returns the number of installed entries.
func (s *Snapshot) Len() int { return s.tbl.Len() }

// Lookup returns the longest-prefix-match entry for dst. This is the
// forwarding hot path: a pure pointer walk, no locks, no allocation.
func (s *Snapshot) Lookup(dst netip.Addr) (route.Entry, bool) {
	net, e, ok := s.tbl.LongestMatch(dst)
	return e.Entry(net), ok
}

// Get returns the entry installed exactly at net, masked: the key.
func (s *Snapshot) Get(net netip.Prefix) (route.Entry, bool) {
	net = net.Masked()
	if e, ok := s.tbl.Get(net); ok {
		return e.Entry(net), true
	}
	return route.Entry{}, false
}

// Walk visits every installed entry in lexicographic order.
func (s *Snapshot) Walk(fn func(route.Entry) bool) {
	s.tbl.Walk(func(net netip.Prefix, e route.Stored) bool { return fn(e.Entry(net)) })
}

// Source is anything that exposes a current forwarding snapshot: the
// Publisher itself, or a Backend wrapping one. Current is the live view.
// On the commit goroutine it always shows the latest commit. Off it, Pin:
// a snapshot no commit changes.
type Source interface {
	Current() *Snapshot
	Pin() *Snapshot
}

// Publisher publishes generations of a kernel.FIB: each applied
// rib.FIBBatch is committed to the FIB in place, and the table that
// results is written into the live snapshot with the next generation.
// Writers serialize among themselves on an internal mutex; Current
// returns the live snapshot, and Pin takes the mutex, so it never meets a
// commit half done.
//
// Publisher implements rib.FIBClient, so it can sit directly below a
// RIB's fib sink, and Source, so workers can chase its snapshots.
type Publisher struct {
	live Snapshot
	fib  *kernel.FIB

	// mu makes a commit and its publish one step, so no publish stores a
	// version older than the one before it. It guards seen: how many FIB
	// commits the current generation holds, at least. A FIB that has made
	// more was written directly since.
	mu   sync.Mutex
	seen uint64

	// tracer, when set, receives the StageSnapPub stamp for every prefix
	// the moment its snapshot is published — the end of a RouteTrace. Set
	// at assembly time, before traffic.
	tracer *telemetry.Tracer
}

// NewPublisher returns a publisher over an empty FIB of its own, holding
// the empty generation-0 snapshot.
func NewPublisher() *Publisher { return newPublisher(kernel.NewFIB()) }

// newPublisher returns a publisher over fib whose generation 0 is fib's
// table as it stands, pinned, so the table takes no blocks.
func newPublisher(fib *kernel.FIB) *Publisher {
	p := &Publisher{fib: fib}
	p.live.tbl, p.seen = fib.Pin()
	return p
}

// Current returns the live snapshot, which each commit rewrites in place.
// Current is the live view. On the commit goroutine it always shows the
// latest commit. Off it, Pin: there only its Gen is safe to read.
func (p *Publisher) Current() *Snapshot { return &p.live }

// Pin returns the FIB's table as it stands, as a snapshot that no later
// commit changes: at the current generation, or, when the FIB was written
// directly since the last publish, published first as the next one, so a
// generation always names the contents it holds. Safe from any goroutine;
// a Pin that publishes is a commit to the live snapshot.
func (p *Publisher) Pin() *Snapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	tbl, n := p.fib.Pin()
	if n != p.seen {
		p.live.tbl, p.seen = tbl, n
		p.live.gen.Add(1)
	}
	s := &Snapshot{tbl: tbl}
	s.gen.Store(p.live.gen.Load())
	return s
}

// SetTracer wires the route-latency tracer stamped at snapshot
// publication. Call at assembly time, before traffic flows.
func (p *Publisher) SetTracer(tr *telemetry.Tracer) { p.tracer = tr }

// Apply hands the batch to the FIB as one Commit, which writes its ops in
// arrival order, and publishes the table that results as the next
// generation, with whatever was written straight to the FIB since the
// last publish. Returns the live snapshot, which the next commit rewrites.
func (p *Publisher) Apply(b *rib.FIBBatch) *Snapshot {
	s, _, _ := p.apply(b)
	return s
}

// apply is Apply, also returning what the FIB's Commit reports: how many
// deletes found an entry and the first invalid add's error.
func (p *Publisher) apply(b *rib.FIBBatch) (*Snapshot, int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	// Counted before the commit: a direct one racing it leaves the FIB
	// ahead of seen, and the next Pin publishes again.
	p.seen = p.fib.Commits() + 1
	tbl, removed, err := p.fib.Commit(b)
	p.live.tbl = tbl
	p.live.gen.Add(1)
	if p.tracer.On(telemetry.StageSnapPub) {
		p.tracer.StampBatch(telemetry.StageSnapPub, b.Nets)
	}
	return &p.live, removed, err
}

// one returns a batch of one op.
func one(e route.Entry, del bool) *rib.FIBBatch {
	b := rib.NewFIBBatch()
	if del {
		b.Delete(e)
	} else {
		b.Add(e)
	}
	return b
}

// FIBAdd publishes one add or replace as its own generation.
func (p *Publisher) FIBAdd(e route.Entry) { p.Apply(one(e, false)) }

// FIBDelete publishes one delete as its own generation.
func (p *Publisher) FIBDelete(e route.Entry) { p.Apply(one(e, true)) }

// FIBApplyBatch implements rib.FIBClient.
func (p *Publisher) FIBApplyBatch(b *rib.FIBBatch) { p.Apply(b) }
