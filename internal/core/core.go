// Package core implements the paper's primary structural contribution
// (§5): routing tables as networks of pluggable stages through which
// routes flow. Concrete stages live with their protocols (packages bgp
// and rib); this package holds the one machinery both are built on:
//
//   - the stage interface Stage[R] and its lookup half Table[R];
//   - Base[R], the name, links and run emitter every stage embeds, and
//     Plumb, Splice and Unsplice, which link stages;
//   - the route-message operations, their two consistency rules, and the
//     Checker and "cache stage" (§5.1) that verify a network obeys them;
//   - the fanout queue (§5.1.1): a single route-change queue with n
//     readers, supporting slow readers without per-reader copies.
package core

import (
	"fmt"
	"net/netip"

	"xorp/internal/telemetry"
	"xorp/internal/trie"
)

// Op is a route-message operation flowing downstream through a stage
// network.
type Op uint8

// The route message operations.
const (
	OpAdd Op = iota + 1
	OpReplace
	OpDelete
)

// String returns the operation name.
func (o Op) String() string {
	switch o {
	case OpAdd:
		return "add"
	case OpReplace:
		return "replace"
	case OpDelete:
		return "delete"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// ConsistencyError records a violation of the stage consistency rules
// (§5.1): (1) every delete must correspond to a previous add; (2) lookups
// must agree with the add/delete stream.
type ConsistencyError struct {
	Stage string
	Op    Op
	Net   netip.Prefix
	Note  string
}

func (e *ConsistencyError) Error() string {
	return fmt.Sprintf("consistency violation at %s: %v %v: %s", e.Stage, e.Op, e.Net, e.Note)
}

// Checker tracks the add/replace/delete stream at one point in a stage
// network, and reports and counts violations. It also serves lookups from
// its shadow table, which is what makes a "cache stage" able to answer
// lookup_route without passing upstream.
type Checker[R any] struct {
	name       string
	tbl        *trie.Table[R]
	violations *telemetry.Counter
}

// NewChecker returns a Checker labeled name for diagnostics, counting
// each violation in violations.
func NewChecker[R any](name string, violations *telemetry.Counter) *Checker[R] {
	return &Checker[R]{name: name, tbl: trie.New[R](), violations: violations}
}

// Add records an add_route, reporting a violation if the prefix is
// already present (an add without an intervening delete).
func (c *Checker[R]) Add(net netip.Prefix, r R) *ConsistencyError {
	if _, dup := c.tbl.Get(net); dup {
		return c.violate(OpAdd, net, "add for prefix already present")
	}
	c.tbl.Upsert(net, r)
	return nil
}

// Replace records a replace_route, reporting a violation if the prefix
// was absent.
func (c *Checker[R]) Replace(net netip.Prefix, r R) *ConsistencyError {
	if _, ok := c.tbl.Get(net); !ok {
		return c.violate(OpReplace, net, "replace for prefix never added")
	}
	c.tbl.Upsert(net, r)
	return nil
}

// Delete records a delete_route, reporting a violation if the prefix was
// absent (rule 1).
func (c *Checker[R]) Delete(net netip.Prefix) *ConsistencyError {
	if _, ok := c.tbl.Delete(net); !ok {
		return c.violate(OpDelete, net, "delete for prefix never added")
	}
	return nil
}

// Lookup returns the checker's view of net — by rule 2, what a correct
// upstream would answer.
func (c *Checker[R]) Lookup(net netip.Prefix) (R, bool) {
	return c.tbl.Get(net)
}

func (c *Checker[R]) violate(op Op, net netip.Prefix, note string) *ConsistencyError {
	c.violations.Inc()
	return &ConsistencyError{Stage: c.name, Op: op, Net: net, Note: note}
}
