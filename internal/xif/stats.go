package xif

import (
	"xorp/internal/xipc"
	"xorp/internal/xrl"
)

// StatsSpec declares stats/0.1: the ops-plane scrape interface every
// process exposes over its telemetry registry (internal/telemetry).
// scrape returns the whole registry rendered as Prometheus-style
// plaintext lines; get resolves one metric by name. Both are pure
// reads and safe to retry.
var StatsSpec = Define(Spec{
	Name:    "stats",
	Version: "0.1",
	Methods: []Method{
		{Name: "scrape", Rets: []Arg{
			{Name: "lines", Type: xrl.TypeList},
		}, Idempotent: true},
		{Name: "get",
			Args: []Arg{{Name: "name", Type: xrl.TypeText}},
			Rets: []Arg{
				{Name: "found", Type: xrl.TypeBool},
				{Name: "value", Type: xrl.TypeFP64},
			}, Idempotent: true},
	},
})

// StatsServer is the typed implementation contract for stats/0.1.
type StatsServer interface {
	StatsScrape() ([]string, error)
	StatsGet(name string) (found bool, value float64, err error)
}

// BindStats wires a StatsServer onto t as stats/0.1.
func BindStats(t *xipc.Target, s StatsServer) {
	b := newBinding(t, StatsSpec)
	b.handle("scrape", func(reader) (xrl.Args, error) {
		lines, err := s.StatsScrape()
		if err != nil {
			return nil, err
		}
		return xrl.Args{textAtoms("lines", lines)}, nil
	})
	b.handle("get", func(in reader) (xrl.Args, error) {
		found, value, err := s.StatsGet(in.text("name"))
		if err != nil {
			return nil, err
		}
		return xrl.Args{
			xrl.Bool("found", found),
			xrl.FP64("value", value),
		}, nil
	})
	b.done()
}

// registryStatsServer adapts a telemetry registry-shaped value (anything
// with RenderLines/Get, i.e. *telemetry.Registry) as a StatsServer
// without importing telemetry here.
type registryStatsServer struct {
	render func() []string
	get    func(string) (float64, bool)
}

func (s registryStatsServer) StatsScrape() ([]string, error) { return s.render(), nil }
func (s registryStatsServer) StatsGet(name string) (bool, float64, error) {
	v, ok := s.get(name)
	return ok, v, nil
}

// BindStatsRegistry wires a registry's RenderLines/Get pair onto t as
// stats/0.1 (the common case: processes bind their *telemetry.Registry
// without writing an adapter).
func BindStatsRegistry(t *xipc.Target, render func() []string, get func(string) (float64, bool)) {
	BindStats(t, registryStatsServer{render: render, get: get})
}

// StatsClient is the typed stub for stats/0.1.
type StatsClient struct{ client }

// NewStatsClient returns a stub scraping target's metrics through r.
func NewStatsClient(r *xipc.Router, target string) *StatsClient {
	return &StatsClient{newClient(r, target, StatsSpec)}
}

// Scrape fetches the registry rendered as plaintext lines.
func (c *StatsClient) Scrape(cb func([]string, *xrl.Error)) {
	c.call("scrape", func(args xrl.Args, err *xrl.Error) {
		ret, err := StatsSpec.reply("scrape", args, err)
		cb(ret.texts("lines"), err)
	})
}

// Get resolves one metric by name.
func (c *StatsClient) Get(name string, cb func(found bool, value float64, err *xrl.Error)) {
	c.call("get", func(args xrl.Args, err *xrl.Error) {
		ret, err := StatsSpec.reply("get", args, err)
		cb(ret.boolean("found"), ret.fp64("value"), err)
	}, xrl.Text("name", name))
}
