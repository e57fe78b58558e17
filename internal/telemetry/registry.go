package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric (events since process
// start). Updates are lock-free; scrapes read live values.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous value (queue depth, table size).
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a Welford summary of observed samples: count, mean,
// stddev, min, max — no buckets, no stored samples, O(1) per Observe.
// Safe for concurrent use (updates from a hot path should instead keep
// a local RunningStat and Merge periodically).
type Histogram struct {
	mu sync.Mutex
	s  RunningStat
}

// Observe adds one sample.
func (h *Histogram) Observe(x float64) {
	h.mu.Lock()
	h.s.Push(x)
	h.mu.Unlock()
}

// Merge folds a locally accumulated RunningStat into the histogram.
func (h *Histogram) Merge(s RunningStat) {
	h.mu.Lock()
	h.s.Merge(s)
	h.mu.Unlock()
}

// Snapshot returns the current summary.
func (h *Histogram) Snapshot() RunningStat {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.s
}

// metric is one registered entry.
type metric struct {
	name string
	help string
	typ  string // "counter", "gauge", "histogram"

	counter *Counter
	gauge   *Gauge
	gfn     func() float64
	hist    *Histogram
}

// Registry holds a process's metrics. Registration normally happens at
// process assembly; updates and scrapes may come from any goroutine.
type Registry struct {
	mu      sync.RWMutex
	metrics map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

func (r *Registry) add(m *metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.metrics[m.name]; dup {
		panic("telemetry: duplicate metric " + m.name)
	}
	r.metrics[m.name] = m
}

// Counter registers (and returns) a counter. By convention counter
// names end in _total, which the profiler's watch mode uses to print
// rates instead of raw values.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.add(&metric{name: name, help: help, typ: "counter", counter: c})
	return c
}

// Gauge registers (and returns) a settable gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.add(&metric{name: name, help: help, typ: "gauge", gauge: g})
	return g
}

// GaugeFunc registers a gauge computed at scrape time. fn must be safe
// to call from any goroutine (read an atomic, sample a counter), never
// touch loop-confined state.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.add(&metric{name: name, help: help, typ: "gauge", gfn: fn})
}

// CounterFunc registers a monotonic counter whose value already lives
// elsewhere (the xipc IO counters, a worker's atomic lookup count) and
// is read at scrape time. Same safety contract as GaugeFunc.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.add(&metric{name: name, help: help, typ: "counter", gfn: fn})
}

// Histogram registers (and returns) a Welford histogram.
func (r *Registry) Histogram(name, help string) *Histogram {
	h := &Histogram{}
	r.add(&metric{name: name, help: help, typ: "histogram", hist: h})
	return h
}

// Get resolves one metric (or histogram component name_count /
// name_mean / name_stddev / name_min / name_max) to its current value.
func (r *Registry) Get(name string) (float64, bool) {
	r.mu.RLock()
	m, ok := r.metrics[name]
	if !ok {
		// Histogram component?
		if i := strings.LastIndexByte(name, '_'); i > 0 {
			if hm, hok := r.metrics[name[:i]]; hok && hm.typ == "histogram" {
				m, ok = hm, true
			}
		}
	}
	r.mu.RUnlock()
	if !ok {
		return 0, false
	}
	switch {
	case m.counter != nil:
		return float64(m.counter.Value()), true
	case m.gauge != nil:
		return m.gauge.Value(), true
	case m.gfn != nil:
		return m.gfn(), true
	case m.hist != nil:
		s := m.hist.Snapshot()
		if m.name == name {
			return s.Mean(), true
		}
		switch name[len(m.name)+1:] {
		case "count":
			return float64(s.Count()), true
		case "mean":
			return s.Mean(), true
		case "stddev":
			return s.Stddev(), true
		case "min":
			return s.Min(), true
		case "max":
			return s.Max(), true
		}
	}
	return 0, false
}

// Render emits the registry in Prometheus-style plaintext, sorted by
// name: # HELP / # TYPE preamble per metric, histograms expanded into
// _count/_mean/_stddev/_min/_max lines.
func (r *Registry) Render() string {
	r.mu.RLock()
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	ms := make([]*metric, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		ms = append(ms, r.metrics[n])
	}
	r.mu.RUnlock()

	var sb strings.Builder
	for _, m := range ms {
		if m.help != "" {
			fmt.Fprintf(&sb, "# HELP %s %s\n", m.name, m.help)
		}
		switch {
		case m.counter != nil:
			fmt.Fprintf(&sb, "# TYPE %s counter\n%s %d\n", m.name, m.name, m.counter.Value())
		case m.gauge != nil:
			fmt.Fprintf(&sb, "# TYPE %s gauge\n%s %v\n", m.name, m.name, m.gauge.Value())
		case m.gfn != nil:
			fmt.Fprintf(&sb, "# TYPE %s %s\n%s %v\n", m.name, m.typ, m.name, m.gfn())
		case m.hist != nil:
			s := m.hist.Snapshot()
			fmt.Fprintf(&sb, "# TYPE %s summary\n", m.name)
			fmt.Fprintf(&sb, "%s_count %d\n", m.name, s.Count())
			fmt.Fprintf(&sb, "%s_mean %v\n", m.name, s.Mean())
			fmt.Fprintf(&sb, "%s_stddev %v\n", m.name, s.Stddev())
			fmt.Fprintf(&sb, "%s_min %v\n", m.name, s.Min())
			fmt.Fprintf(&sb, "%s_max %v\n", m.name, s.Max())
		}
	}
	return sb.String()
}

// RenderLines returns Render split into lines (the stats/0.1 scrape
// payload: one text atom per line).
func (r *Registry) RenderLines() []string {
	text := strings.TrimRight(r.Render(), "\n")
	if text == "" {
		return nil
	}
	return strings.Split(text, "\n")
}
