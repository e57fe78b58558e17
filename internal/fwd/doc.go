// Package fwd is the sharded forwarding plane: the data-plane half the
// paper's evaluation never measured. The control plane (RIB → FEA)
// produces rib.FIBBatch transactions, each a list of writes in arrival
// order; this package turns each applied batch into the next FIB snapshot
// generation — the kernel FIB's longest-prefix-match table, rewritten into
// one live snapshot — and forwards a synthetic packet stream against it
// from N shared-nothing lookup workers.
//
// A batch is one commit is one generation: Publisher.Apply hands the
// batch to its kernel.FIB, whose Commit writes every operation in place,
// in the order it arrived, into the FIB's trie.Table, and publishes the
// table that results. The kernel view and the data plane read that one
// table; a write made
// straight to the FIB shows in the data plane at the next publish — the
// next Apply's, or a Pin's, which publishes the table as the next
// generation when the FIB has made commits the last publish did not (it
// counts them), so a generation always names what it holds. The
// single-entry FIBAdd and FIBDelete are batches of one. A publish
// allocates nothing: it rewrites the table and generation in place.
//
// Every commit runs on the FEA's loop, and so do the FEA's own readers.
// Current is the live view. On the commit goroutine it always shows the
// latest commit. Off it, or across commits, Pin: the commits after a pin
// copy each node they touch that the pin can reach, once, and never write
// it (the trie package's persistent.go has the rule), so a pinned
// snapshot shows exactly the route set after some whole number of commits
// for as long as it is held. Only Gen, an atomic load, is safe anywhere.
// A path copy is the four fans the route's address passes, the last
// holding its /16's Patricia trie in its own slot, and the few trie nodes
// above the route; a lookup reads that /16's trie first and the fans'
// short-prefix tries only when nothing there matched.
//
// The table stores a route.Stored under each prefix, the route less its
// key, its next hop, interface name and tags one interned handle; every
// read rebuilds the route.Entry from the two without allocating, so a
// valued node is 48 bytes (a 32-byte header and the 16-byte value) and a
// prefix comes back masked, as filed.
//
// The shape follows NDN-DPDK's FwFwd design (one forwarding thread per
// core, per-worker counters, no shared mutable state), whose FIB readers
// cost the writer only at their quiescent points: here the FEA's loop is
// the quiescent point, and a pin is the one reader that does not quiesce.
//
//	RIB stage network
//	      │  rib.FIBBatch (adds/replaces/deletes, in arrival order)
//	      ▼
//	 fwd.Backend (SimBackend: a Publisher over a kernel.FIB)
//	      │
//	 Publisher.Apply: kernel.FIB.Commit writes the table in place;
//	                  the live snapshot takes it as generation n+1
//	      ▼
//	 ┌─────────┬─────────┬─────────┐
//	 │ worker 0│ worker 1│ worker N│  a Pin per burst, then lock-free
//	 └─────────┴─────────┴─────────┘  LongestMatch; per-worker counters
//
// No router process runs a Pool: the repo benchmark does (bash
// benchmark/run.sh --workload forward --trace 1 reports
// fwd.pool_lookups_per_s), and so do the tests.
package fwd
