package fwd

import (
	"net/netip"
	"sync"

	"xorp/internal/kernel"
	"xorp/internal/rib"
	"xorp/internal/route"
	"xorp/internal/telemetry"
)

// Backend is the seam between the FEA's control-plane writes and a real
// forwarding plane: every applied rib.FIBBatch lands in some
// kernel-shaped sink and is published as the next immutable snapshot.
// SimBackend, the in-process simulated kernel, is the one implementation
// in this module; the interface is what fea.Process.SetBackend accepts,
// so a wrapper that times the writes (the benchmark's span recorder) or a
// writer to a real kernel stands in without changing a caller.
type Backend interface {
	Source
	// Name identifies the backend ("sim").
	Name() string
	// Apply lands one coalesced batch and publishes the next snapshot.
	// The batch is only valid for the duration of the call.
	Apply(b *rib.FIBBatch) error
	// ApplyEntry lands a single add/replace.
	ApplyEntry(e route.Entry) error
	// RemoveEntry lands a single delete, reporting whether it existed.
	RemoveEntry(net netip.Prefix) bool
}

// SimBackend is the in-process simulated kernel: batches land in a
// kernel.FIB (preserving its install counters and observer hooks — the
// paper's profile point 8, "entering the kernel") and publish through an
// embedded Publisher. The mutexed FIB remains the write-side source of
// truth for control-plane reads (interfaces, stats); the data plane
// reads the published snapshots.
type SimBackend struct {
	fib *kernel.FIB
	pub *Publisher

	// mu guards the scratch Apply translates a batch into; the slices
	// are reused so a batch costs no garbage of its own.
	mu      sync.Mutex
	adds    []kernel.FIBEntry
	removes []netip.Prefix
}

// NewSimBackend returns a simulated-kernel backend over fib. The initial
// snapshot mirrors fib's current contents, so a backend attached to a
// pre-populated FIB starts consistent.
func NewSimBackend(fib *kernel.FIB) *SimBackend {
	b := &SimBackend{fib: fib, pub: NewPublisher()}
	if fib.Len() > 0 {
		seed := rib.NewFIBBatch()
		fib.Walk(func(e kernel.FIBEntry) bool {
			seed.Add(route.Entry{Net: e.Net, NextHop: e.NextHop, IfName: e.IfName})
			return true
		})
		b.pub.Apply(seed)
	}
	return b
}

// Name implements Backend.
func (b *SimBackend) Name() string { return "sim" }

// SetTracer wires the route-latency tracer into the backend's snapshot
// publisher (the StageSnapPub trace point).
func (b *SimBackend) SetTracer(tr *telemetry.Tracer) { b.pub.SetTracer(tr) }

// FIB returns the underlying simulated kernel table.
func (b *SimBackend) FIB() *kernel.FIB { return b.fib }

// Publisher returns the backend's snapshot publisher.
func (b *SimBackend) Publisher() *Publisher { return b.pub }

// Current implements Source.
func (b *SimBackend) Current() *Snapshot { return b.pub.Current() }

// Apply implements Backend: the batch lands in the kernel FIB in one
// critical section and in the snapshot chain as one generation.
// Individual entry failures don't abort the rest; the first error is
// returned.
func (b *SimBackend) Apply(batch *rib.FIBBatch) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.adds, b.removes = b.adds[:0], b.removes[:0]
	batch.Ops(func(op rib.FIBOp) {
		switch op.Kind {
		case rib.FIBOpAdd, rib.FIBOpReplace:
			b.adds = append(b.adds, kernel.FIBEntry{Net: op.New.Net, NextHop: op.New.NextHop, IfName: op.New.IfName})
		case rib.FIBOpDelete:
			b.removes = append(b.removes, op.Old.Net)
		}
	})
	err := b.fib.ApplyBatch(b.adds, b.removes)
	b.pub.Apply(batch)
	return err
}

// ApplyEntry implements Backend.
func (b *SimBackend) ApplyEntry(e route.Entry) error {
	err := b.fib.Install(kernel.FIBEntry{Net: e.Net, NextHop: e.NextHop, IfName: e.IfName})
	if err == nil {
		b.pub.FIBAdd(e)
	}
	return err
}

// RemoveEntry implements Backend.
func (b *SimBackend) RemoveEntry(net netip.Prefix) bool {
	ok := b.fib.Remove(net)
	if ok {
		b.pub.FIBDelete(route.Entry{Net: net})
	}
	return ok
}
