package rib

import (
	"net/netip"

	"xorp/internal/route"
)

// FIBOpKind labels one forwarding-table operation in a FIBBatch.
type FIBOpKind uint8

// The FIB operation kinds.
const (
	FIBOpAdd FIBOpKind = iota
	FIBOpReplace
	FIBOpDelete
)

// FIBOp is one forwarding-table write.
type FIBOp struct {
	Kind FIBOpKind
	Old  route.Entry // valid for Replace and Delete
	New  route.Entry // valid for Add and Replace
}

// Net returns the prefix the op concerns.
func (op FIBOp) Net() netip.Prefix {
	if op.Kind == FIBOpDelete {
		return op.Old.Net
	}
	return op.New.Net
}

// FIBBatch is a list of forwarding-table writes in arrival order. Nothing
// is merged: a prefix written twice is two ops, and a table that applies
// them in order (kernel.FIB.Commit) ends as the stream says.
type FIBBatch struct {
	ops []FIBOp
}

// NewFIBBatch returns an empty batch.
func NewFIBBatch() *FIBBatch { return &FIBBatch{} }

// Reset empties the batch for reuse.
func (b *FIBBatch) Reset() { b.ops = b.ops[:0] }

// Len reports the number of ops.
func (b *FIBBatch) Len() int { return len(b.ops) }

// Add records an add of e.
func (b *FIBBatch) Add(e route.Entry) { b.ops = append(b.ops, FIBOp{Kind: FIBOpAdd, New: e}) }

// Replace records old's replacement by new.
func (b *FIBBatch) Replace(old, new route.Entry) {
	b.ops = append(b.ops, FIBOp{Kind: FIBOpReplace, Old: old, New: new})
}

// Delete records a delete of e.
func (b *FIBBatch) Delete(e route.Entry) { b.ops = append(b.ops, FIBOp{Kind: FIBOpDelete, Old: e}) }

// At returns the i-th op as a table write: the entry an add or replace
// installs, or, with del, the entry a delete removes. It makes the batch
// a kernel.Writes.
func (b *FIBBatch) At(i int) (e route.Entry, del bool) {
	op := &b.ops[i]
	if op.Kind == FIBOpDelete {
		return op.Old, true
	}
	return op.New, false
}

// Ops visits the ops in arrival order.
func (b *FIBBatch) Ops(fn func(FIBOp)) {
	for i := range b.ops {
		fn(b.ops[i])
	}
}

// Nets visits each op's prefix and whether it is a delete, in arrival
// order: what telemetry.Tracer.StampBatch takes.
func (b *FIBBatch) Nets(yield func(net netip.Prefix, del bool)) {
	for i := range b.ops {
		yield(b.ops[i].Net(), b.ops[i].Kind == FIBOpDelete)
	}
}
