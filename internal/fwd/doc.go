// Package fwd is the sharded forwarding plane: the data-plane half the
// paper's evaluation never measured. The control plane (RIB → FEA)
// produces coalesced rib.FIBBatch transactions; this package turns each
// applied batch into a new immutable FIB snapshot — a copy-on-write
// longest-prefix-match table (trie.Persistent) published with a single
// atomic pointer flip — and forwards a synthetic packet stream against
// it from N shared-nothing lookup workers.
//
// A batch is one edit session is one generation: Publisher.Apply hands
// the batch to its kernel.FIB, whose Commit opens a trie.Edit on the FIB's
// table, applies every operation of the batch and ends the session, and
// the publisher publishes the version that results. The FIB keeps no
// other copy: the kernel view and the data plane read one table, and a
// write made straight to the FIB shows in the data plane at the next
// publish. Inside a session a node the session allocated is
// changed in place and any other node is copied first, so a batch copies
// each touched node at most once and a published snapshot is never
// written (see the trie package's persistent.go for why the owner mark
// cannot be confused between sessions). The single-entry FIBAdd and
// FIBDelete are batches of one: one path copy, one generation. Beside the
// path copy a publish allocates one object, the Snapshot: it holds the
// table version by value, and Commit's session stays on the stack.
//
// A path copy is the fans the route's address passes — four, the last
// holding its /16's Patricia trie in its own slot — and the few trie nodes
// above the route. A lookup goes down the fans to that /16 trie first and
// reads the fans' short-prefix tries only when nothing there matched.
//
// The table stores a route.Stored under each prefix, the route less its
// key; every read rebuilds the route.Entry from the two without allocating,
// so a valued node is 96 bytes and a prefix comes back masked, as filed.
//
// The shape follows NDN-DPDK's FwFwd design (one forwarding thread per
// core, per-worker counters, no shared mutable state) and Harmonia's
// snapshot isolation for read scaling: readers run
// against consistent immutable versions, so route churn never takes a
// lock a lookup can observe, lookups never see a half-applied batch, and
// lookup throughput scales with cores by construction.
//
//	RIB stage network
//	      │  rib.FIBBatch (coalesced adds/replaces/deletes)
//	      ▼
//	 fwd.Backend (SimBackend: a Publisher over a kernel.FIB)
//	      │
//	 Publisher.Apply: kernel.FIB.Commit derives version n+1 from n
//	                  (one trie edit session); it is snapshot n+1
//	      │  one atomic pointer flip
//	      ▼
//	 ┌─────────┬─────────┬─────────┐
//	 │ worker 0│ worker 1│ worker N│  lock-free LongestMatch loops,
//	 └─────────┴─────────┴─────────┘  per-worker hit/drop counters
//
// No router process runs a Pool: the repo benchmark does (bash
// benchmark/run.sh --workload forward --trace 1 reports
// fwd.pool_lookups_per_s), and so do the tests.
package fwd
