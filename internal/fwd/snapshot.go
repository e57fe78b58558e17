package fwd

import (
	"net/netip"
	"sync"
	"sync/atomic"

	"xorp/internal/rib"
	"xorp/internal/route"
	"xorp/internal/telemetry"
	"xorp/internal/trie"
)

// Snapshot is one immutable FIB version: a generation number and a
// copy-on-write LPM table of route.Stored values. A Snapshot never changes
// after publication; readers may hold one for any length of time and see a
// consistent forwarding table — exactly the route set after some whole
// number of applied batches, never a half-applied one.
type Snapshot struct {
	gen uint64
	tbl *trie.Persistent[route.Stored]
}

var emptySnapshot = &Snapshot{tbl: trie.NewPersistent[route.Stored]()}

// Gen returns the snapshot's generation: the number of publications that
// produced it (the empty table is generation 0).
func (s *Snapshot) Gen() uint64 { return s.gen }

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
// Publisher itself, or a Backend wrapping one.
type Source interface {
	Current() *Snapshot
}

// Publisher owns the write side of the RCU-style snapshot chain: each
// applied rib.FIBBatch derives the next version from the current one in
// one edit session and publishes it with one atomic pointer store. Writers
// serialize among themselves on an internal mutex that no reader ever
// touches; Current is a single atomic load.
//
// Publisher implements rib.FIBClient, so it can sit directly below a
// RIB's fib sink, and Source, so workers can chase its snapshots.
type Publisher struct {
	cur atomic.Pointer[Snapshot]

	mu sync.Mutex // serializes Apply/FIBAdd/FIBDelete writers

	// tracer, when set and enabled, receives the StageSnapPub stamp for
	// every added/replaced prefix the moment its snapshot is published —
	// the end of a RouteTrace. Set at assembly time, before traffic.
	tracer *telemetry.Tracer
}

// NewPublisher returns a publisher holding the empty generation-0
// snapshot.
func NewPublisher() *Publisher {
	p := &Publisher{}
	p.cur.Store(emptySnapshot)
	return p
}

// Current returns the latest published snapshot. Safe from any
// goroutine; the result is immutable.
func (p *Publisher) Current() *Snapshot { return p.cur.Load() }

// SetTracer wires the route-latency tracer stamped at snapshot
// publication. Call at assembly time, before traffic flows.
func (p *Publisher) SetTracer(tr *telemetry.Tracer) { p.tracer = tr }

// Apply derives the next snapshot from the current one by applying the
// batch's net operations in one trie edit session — each touched node is
// copied at most once however many of the batch's routes pass through
// it — and publishes it. The whole batch becomes visible in one pointer
// flip. Returns the published snapshot.
func (p *Publisher) Apply(b *rib.FIBBatch) *Snapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	old := p.cur.Load()
	edit := old.tbl.Edit()
	b.Ops(func(op rib.FIBOp) {
		switch op.Kind {
		case rib.FIBOpAdd, rib.FIBOpReplace:
			edit.Insert(op.New.Net, op.New.Stored())
		case rib.FIBOpDelete:
			edit.Delete(op.Old.Net)
		}
	})
	next := &Snapshot{gen: old.gen + 1, tbl: edit.Publish()}
	p.cur.Store(next)
	if p.tracer.Enabled() {
		p.tracer.StampBatch(telemetry.StageSnapPub, func(yield func(netip.Prefix)) {
			b.Ops(func(op rib.FIBOp) {
				if op.Kind == rib.FIBOpAdd || op.Kind == rib.FIBOpReplace {
					yield(op.New.Net)
				}
			})
		})
	}
	return next
}

// publish1 applies a single-entry mutation as its own generation.
func (p *Publisher) publish1(mutate func(*trie.Persistent[route.Stored]) *trie.Persistent[route.Stored]) {
	p.mu.Lock()
	defer p.mu.Unlock()
	old := p.cur.Load()
	p.cur.Store(&Snapshot{gen: old.gen + 1, tbl: mutate(old.tbl)})
}

// FIBAdd publishes one add or replace as its own generation.
func (p *Publisher) FIBAdd(e route.Entry) {
	p.publish1(func(t *trie.Persistent[route.Stored]) *trie.Persistent[route.Stored] {
		return t.Insert(e.Net, e.Stored())
	})
	if p.tracer.Enabled() {
		p.tracer.Stamp(telemetry.StageSnapPub, e.Net)
	}
}

// FIBDelete publishes one delete as its own generation.
func (p *Publisher) FIBDelete(e route.Entry) {
	p.publish1(func(t *trie.Persistent[route.Stored]) *trie.Persistent[route.Stored] {
		t, _ = t.Delete(e.Net)
		return t
	})
}

// FIBApplyBatch implements rib.FIBClient.
func (p *Publisher) FIBApplyBatch(b *rib.FIBBatch) { p.Apply(b) }
