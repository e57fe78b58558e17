package fwd

import (
	"net/netip"

	"xorp/internal/kernel"
	"xorp/internal/rib"
	"xorp/internal/route"
	"xorp/internal/telemetry"
)

// Backend is the seam between the FEA's control-plane writes and a real
// forwarding plane: every applied rib.FIBBatch lands in some
// kernel-shaped sink and is published as the next snapshot.
// SimBackend, the in-process simulated kernel, is the one implementation
// in this module; the interface is what fea.Process.SetBackend accepts,
// so a wrapper that times the writes (the benchmark's span recorder) or a
// writer to a real kernel stands in without changing a caller.
type Backend interface {
	Source
	// Name identifies the backend ("sim").
	Name() string
	// Apply lands one batch, its writes in arrival order, and publishes
	// the next snapshot. The batch is only valid for the duration of the
	// call.
	Apply(b *rib.FIBBatch) error
	// ApplyEntry lands a single add/replace.
	ApplyEntry(e route.Entry) error
	// RemoveEntry lands a single delete, reporting whether it existed.
	RemoveEntry(net netip.Prefix) bool
}

// SimBackend is the in-process simulated kernel: a Publisher over a
// kernel.FIB. A batch is committed to the FIB (preserving its install
// counters and observer hooks — the paper's profile point 8, "entering
// the kernel") and the version that results is published, so the kernel
// view (interfaces, stats, Lookup) and the data plane read one table.
type SimBackend struct {
	pub *Publisher
}

// NewSimBackend returns a simulated-kernel backend over fib. The initial
// snapshot is fib's current table, so a backend attached to a
// pre-populated FIB starts consistent.
func NewSimBackend(fib *kernel.FIB) *SimBackend {
	return &SimBackend{pub: newPublisher(fib)}
}

// Name implements Backend.
func (b *SimBackend) Name() string { return "sim" }

// SetTracer wires the route-latency tracer into the backend's snapshot
// publisher (the StageSnapPub trace point).
func (b *SimBackend) SetTracer(tr *telemetry.Tracer) { b.pub.SetTracer(tr) }

// Current implements Source.
func (b *SimBackend) Current() *Snapshot { return b.pub.Current() }

// Pin implements Source.
func (b *SimBackend) Pin() *Snapshot { return b.pub.Pin() }

// Apply implements Backend: the batch is one FIB commit and one snapshot
// generation. Individual entry failures don't abort the rest; the first
// error is returned.
func (b *SimBackend) Apply(batch *rib.FIBBatch) error {
	_, _, err := b.pub.apply(batch)
	return err
}

// ApplyEntry implements Backend: a batch of one.
func (b *SimBackend) ApplyEntry(e route.Entry) error {
	_, _, err := b.pub.apply(one(e, false))
	return err
}

// RemoveEntry implements Backend: a batch of one.
func (b *SimBackend) RemoveEntry(net netip.Prefix) bool {
	_, removed, _ := b.pub.apply(one(route.Entry{Net: net}, true))
	return removed == 1
}
