package telemetry

import (
	"fmt"
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

// metric is one registered entry.
type metric struct {
	name string
	help string
	typ  string // "counter", "gauge"

	counter *Counter
	gfn     func() float64
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

// Get resolves one metric to its current value.
func (r *Registry) Get(name string) (float64, bool) {
	r.mu.RLock()
	m, ok := r.metrics[name]
	r.mu.RUnlock()
	switch {
	case !ok:
		return 0, false
	case m.counter != nil:
		return float64(m.counter.Value()), true
	}
	return m.gfn(), true
}

// Render emits the registry in Prometheus-style plaintext, sorted by
// name: # HELP / # TYPE preamble per metric.
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
		if m.counter != nil {
			fmt.Fprintf(&sb, "# TYPE %s counter\n%s %d\n", m.name, m.name, m.counter.Value())
		} else {
			fmt.Fprintf(&sb, "# TYPE %s %s\n%s %v\n", m.name, m.typ, m.name, m.gfn())
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
