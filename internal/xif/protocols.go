package xif

import (
	"xorp/internal/route"
	"xorp/internal/xipc"
	"xorp/internal/xrl"
)

// Redist4Spec declares redist4/0.1 (XORP's name): the RIB's
// redistribution feed into a protocol (§5.2). A RIB redist stage hands the
// routes its filter passes to the protocol that asked for them; every
// protocol binds it, and it is a protocol's one way in for a
// redistributed route.
var Redist4Spec = Define(Spec{
	Name:    "redist4",
	Version: "0.1",
	Methods: []Method{
		{Name: "add_route4", Args: []Arg{
			{Name: "network", Type: xrl.TypeIPv4Net},
			{Name: "nexthop", Type: xrl.TypeIPv4, Optional: true},
			{Name: "metric", Type: xrl.TypeU32, Optional: true},
		}},
		{Name: "delete_route4", Args: []Arg{
			{Name: "network", Type: xrl.TypeIPv4Net},
		}},
	},
})

// Redist4Server is the typed implementation contract for redist4/0.1:
// rib.Redistributor's method set (the rib package imports this one, so it
// cannot be named here). A left-out nexthop arrives invalid, a left-out
// metric as 0.
type Redist4Server interface {
	RedistAdd(e route.Entry)
	RedistDelete(e route.Entry)
}

// BindRedist4 wires a Redist4Server onto t as redist4/0.1.
func BindRedist4(t *xipc.Target, s Redist4Server) {
	b := newBinding(t, Redist4Spec)
	b.handle("add_route4", func(in reader) (xrl.Args, error) {
		s.RedistAdd(route.Entry{Net: in.net("network"), NextHop: in.addr("nexthop"), Metric: in.u32("metric")})
		return nil, nil
	})
	b.handle("delete_route4", func(in reader) (xrl.Args, error) {
		s.RedistDelete(route.Entry{Net: in.net("network")})
		return nil, nil
	})
	b.done()
}

// Redist4Client is the typed stub for redist4/0.1, and itself a
// rib.Redistributor: a RIB redist stage given one feeds the protocol at
// target over XRLs. Calls go out without waiting for a reply, in order.
type Redist4Client struct{ client }

// NewRedist4Client returns a stub sending redist4/0.1 XRLs to target
// through r.
func NewRedist4Client(r *xipc.Router, target string) *Redist4Client {
	return &Redist4Client{client{r, target, Redist4Spec}}
}

// RedistAdd implements rib.Redistributor: add_route4.
func (c *Redist4Client) RedistAdd(e route.Entry) {
	var buf [3]xrl.Atom
	args := append(buf[:0], xrl.Net("network", e.Net))
	if e.NextHop.IsValid() {
		args = append(args, xrl.Addr("nexthop", e.NextHop))
	}
	if e.Metric != 0 {
		args = append(args, xrl.U32("metric", e.Metric))
	}
	c.call("add_route4", nil, args...)
}

// RedistDelete implements rib.Redistributor: delete_route4.
func (c *Redist4Client) RedistDelete(e route.Entry) {
	c.call("delete_route4", nil, xrl.Net("network", e.Net))
}

// BenchSpec declares bench/1.0: the Figure 9 echo sink. sink absorbs an
// arbitrary argument list (the experiment sweeps the argument count), so
// it is the one AnyArgs method in the registry.
var BenchSpec = Define(Spec{
	Name:    "bench",
	Version: "1.0",
	Methods: []Method{
		{Name: "sink", AnyArgs: true},
	},
})

// BenchServer is the typed implementation contract for bench/1.0.
type BenchServer interface {
	Sink(args xrl.Args) (xrl.Args, error)
}

// BenchSinkFunc adapts a function as a BenchServer.
type BenchSinkFunc func(args xrl.Args) (xrl.Args, error)

// Sink implements BenchServer.
func (f BenchSinkFunc) Sink(args xrl.Args) (xrl.Args, error) { return f(args) }

// BindBench wires a BenchServer onto t as bench/1.0.
func BindBench(t *xipc.Target, s BenchServer) {
	b := newBinding(t, BenchSpec)
	b.handle("sink", func(in reader) (xrl.Args, error) { return s.Sink(in.args) })
	b.done()
}
