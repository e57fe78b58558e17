package telemetry

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestRegistryRender pins the Prometheus-style exposition format.
func TestRegistryRender(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("events_total", "events since start")
	r.GaugeFunc("depth", "queue depth", func() float64 { return 2.5 })
	r.CounterFunc("lat_total", "", func() float64 { return 7 })

	c.Add(3)

	out := r.Render()
	for _, want := range []string{
		"# HELP events_total events since start",
		"# TYPE events_total counter",
		"events_total 3",
		"# TYPE depth gauge",
		"depth 2.5",
		"# TYPE lat_total counter",
		"lat_total 7",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}

	// Sorted by name: depth before events_total before lat_total.
	if strings.Index(out, "depth") > strings.Index(out, "events_total") ||
		strings.Index(out, "events_total") > strings.Index(out, "lat_total") {
		t.Error("render not sorted by metric name")
	}

	if v, ok := r.Get("depth"); !ok || v != 2.5 {
		t.Errorf("Get(depth) = %v, %v", v, ok)
	}
	if v, ok := r.Get("events_total"); !ok || v != 3 {
		t.Errorf("Get(events_total) = %v, %v", v, ok)
	}
	if _, ok := r.Get("absent"); ok {
		t.Error("Get(absent) reported found")
	}
}

// TestRegistryConcurrentScrape hammers every metric kind from writer
// goroutines while scraping concurrently; run under -race this pins the
// registry's contract that updates and scrapes may come from any
// goroutine.
func TestRegistryConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total", "")
	var depth, ext atomic.Uint64
	r.GaugeFunc("depth", "", func() float64 { return float64(depth.Load()) })
	r.CounterFunc("ext_total", "", func() float64 { return float64(ext.Load()) })

	const writers, iters = 4, 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Inc()
				depth.Store(uint64(i))
				ext.Add(1)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for scraping := true; scraping; {
		select {
		case <-done:
			scraping = false
		default:
		}
		if out := r.Render(); !strings.Contains(out, "ops_total") {
			t.Fatal("scrape lost a metric")
		}
		r.Get("depth")
		r.Get("ops_total")
	}

	if got := c.Value(); got != writers*iters {
		t.Fatalf("ops_total = %d, want %d", got, writers*iters)
	}
	if v, _ := r.Get("ext_total"); v != writers*iters {
		t.Fatalf("ext_total = %v, want %d", v, writers*iters)
	}
}

// TestRegistryDuplicatePanics pins the assembly-time dup guard.
func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.GaugeFunc("x_total", "", func() float64 { return 0 })
}
