package rib

import (
	"net/netip"

	"xorp/internal/route"
)

// FIBOpKind labels one forwarding-table operation in a FIBBatch.
type FIBOpKind uint8

// The FIB operation kinds. fibOpNone marks an op that folded away (an add
// cancelled by a later delete); Ops skips it.
const (
	fibOpNone FIBOpKind = iota
	FIBOpAdd
	FIBOpReplace
	FIBOpDelete
)

// FIBOp is one coalesced forwarding-table operation.
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

// FIBBatch is a transaction-style set of forwarding-table updates.
// Operations recorded against the same prefix fold together — add then
// delete cancels, delete then add becomes replace, consecutive replaces
// chain — so a churny run ships as one minimal coalesced update set
// (the FIB-level analogue of the XRL write coalescing): the forwarding
// plane sees each prefix's net effect exactly once, in first-touch order.
type FIBBatch struct {
	ops []FIBOp
	idx map[netip.Prefix]int // prefix -> position in ops
}

// NewFIBBatch returns an empty batch.
func NewFIBBatch() *FIBBatch {
	return &FIBBatch{idx: make(map[netip.Prefix]int)}
}

// Reset empties the batch for reuse.
func (b *FIBBatch) Reset() {
	b.ops = b.ops[:0]
	clear(b.idx)
}

// Len reports the number of live (non-cancelled) operations.
func (b *FIBBatch) Len() int {
	n := 0
	for i := range b.ops {
		if b.ops[i].Kind != fibOpNone {
			n++
		}
	}
	return n
}

// Add records an add for e.Net.
func (b *FIBBatch) Add(e route.Entry) {
	i, ok := b.find(e.Net)
	if !ok {
		b.push(FIBOp{Kind: FIBOpAdd, New: e})
		return
	}
	switch b.ops[i].Kind {
	case fibOpNone:
		// Previous ops on the prefix cancelled out; this is a fresh add.
		b.ops[i] = FIBOp{Kind: FIBOpAdd, New: e}
	case FIBOpDelete:
		// delete+add: the prefix existed before the batch — a replace.
		b.ops[i] = FIBOp{Kind: FIBOpReplace, Old: b.ops[i].Old, New: e}
	default:
		// add+add / replace+add (shouldn't occur from a well-formed
		// stream); keep the final state.
		b.ops[i].New = e
	}
}

// Replace records a replace for new.Net.
func (b *FIBBatch) Replace(old, new route.Entry) {
	i, ok := b.find(new.Net)
	if !ok {
		b.push(FIBOp{Kind: FIBOpReplace, Old: old, New: new})
		return
	}
	switch b.ops[i].Kind {
	case FIBOpAdd:
		// add+replace: still a plain add of the newest entry.
		b.ops[i].New = new
	case FIBOpReplace, FIBOpDelete:
		// replace+replace chains; delete+replace is defensive (treat the
		// recorded pre-batch entry as the replace's old side).
		b.ops[i] = FIBOp{Kind: FIBOpReplace, Old: b.ops[i].Old, New: new}
	case fibOpNone:
		b.ops[i] = FIBOp{Kind: FIBOpReplace, Old: old, New: new}
	}
}

// Delete records a delete for e.Net.
func (b *FIBBatch) Delete(e route.Entry) {
	i, ok := b.find(e.Net)
	if !ok {
		b.push(FIBOp{Kind: FIBOpDelete, Old: e})
		return
	}
	switch b.ops[i].Kind {
	case FIBOpAdd:
		// add+delete within the batch: net zero.
		b.ops[i] = FIBOp{Kind: fibOpNone}
	case FIBOpReplace:
		// replace+delete: the pre-batch entry goes away.
		b.ops[i] = FIBOp{Kind: FIBOpDelete, Old: b.ops[i].Old}
	case FIBOpDelete, fibOpNone:
		b.ops[i] = FIBOp{Kind: FIBOpDelete, Old: e}
	}
}

// find returns the position of the op recorded for net. A batch of one —
// every single-route push — is compared directly and never touches the
// index, which push builds when a second op arrives.
func (b *FIBBatch) find(net netip.Prefix) (int, bool) {
	if len(b.ops) == 1 {
		return 0, b.ops[0].Kind != fibOpNone && b.ops[0].Net() == net
	}
	i, ok := b.idx[net]
	return i, ok
}

func (b *FIBBatch) push(op FIBOp) {
	if len(b.ops) == 1 && b.ops[0].Kind != fibOpNone {
		b.idx[b.ops[0].Net()] = 0
	}
	if len(b.ops) > 0 {
		b.idx[op.Net()] = len(b.ops)
	}
	b.ops = append(b.ops, op)
}

// Ops visits the live operations in first-touch order.
func (b *FIBBatch) Ops(fn func(FIBOp)) {
	for i := range b.ops {
		if b.ops[i].Kind != fibOpNone {
			fn(b.ops[i])
		}
	}
}
