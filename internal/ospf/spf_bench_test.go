package ospf

import (
	"fmt"
	"testing"
)

// The SPF benchmarks measure the cost of route recomputation at 100-
// and 1000-router grid topologies: a full Dijkstra re-run (link
// failure) versus the incremental prefix-table-only recompute (route
// redistribution churn). xorp_bench -experiment spf prints the same
// comparison, and the experiments.json grid repeats it.

func benchmarkSPFFull(b *testing.B, n int) {
	db, root := GridLSDB(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spf := NewSPF(root)
		routes := spf.Recompute(db, true)
		if len(routes) != n {
			b.Fatalf("%d routes, want %d", len(routes), n)
		}
	}
}

func benchmarkSPFIncremental(b *testing.B, n int) {
	db, root := GridLSDB(n)
	spf := NewSPF(root)
	spf.Recompute(db, true) // warm the shortest-path tree
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !db.MutatePrefix(root, uint16(2+i%7)) {
			b.Fatal("mutation was not prefix-only")
		}
		routes := spf.Recompute(db, false)
		if len(routes) != n {
			b.Fatalf("%d routes, want %d", len(routes), n)
		}
	}
	if st := spf.Stats(); st.Full != 1 {
		b.Fatalf("incremental benchmark ran %d full SPFs", st.Full)
	}
}

func BenchmarkSPF(b *testing.B) {
	for _, n := range []int{100, 1000} {
		b.Run(fmt.Sprintf("full/%d", n), func(b *testing.B) { benchmarkSPFFull(b, n) })
		b.Run(fmt.Sprintf("incremental/%d", n), func(b *testing.B) { benchmarkSPFIncremental(b, n) })
	}
}

func TestGridLSDBConnected(t *testing.T) {
	// Every grid router's prefix must be reachable from the root.
	for _, n := range []int{1, 7, 100} {
		db, root := GridLSDB(n)
		spf := NewSPF(root)
		routes := spf.Recompute(db, true)
		if len(routes) != n {
			t.Fatalf("n=%d: %d routes reachable", n, len(routes))
		}
	}
}
