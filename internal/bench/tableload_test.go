package bench

import "testing"

// BenchmarkTableLoad measures the full-table RIB load experiment at a
// bench-friendly size (20k routes), one sub-benchmark per run length;
// the full-size numbers are the repo benchmark's bulk workload
// (benchmark/README.md, rib.add_allocs_per_route).
func BenchmarkTableLoad(b *testing.B) {
	const n = 20000
	for _, mode := range []struct {
		name  string
		batch bool
	}{{"single", false}, {"batch", true}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := RunTableLoad(n, mode.batch)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.RoutesPerSec, "routes/sec")
			}
		})
	}
}
