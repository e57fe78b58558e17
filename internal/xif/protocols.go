package xif

import (
	"net/netip"

	"xorp/internal/xipc"
	"xorp/internal/xrl"
)

// OSPFSpec declares ospf/0.1: external control of the OSPF process
// (prefix origination, mirroring the originate XRLs of PR 2).
var OSPFSpec = Define(Spec{
	Name:    "ospf",
	Version: "0.1",
	Methods: []Method{
		{Name: "originate", Args: []Arg{
			{Name: "network", Type: xrl.TypeIPv4Net},
			{Name: "cost", Type: xrl.TypeU32, Optional: true},
		}},
		{Name: "withdraw", Args: []Arg{
			{Name: "network", Type: xrl.TypeIPv4Net},
		}},
	},
})

// OSPFServer is the typed implementation contract for ospf/0.1.
type OSPFServer interface {
	Originate(net netip.Prefix, cost uint32) error
	Withdraw(net netip.Prefix) error
}

// BindOSPF wires an OSPFServer onto t as ospf/0.1.
func BindOSPF(t *xipc.Target, s OSPFServer) {
	b := newBinding(t, OSPFSpec)
	b.handle("originate", func(args xrl.Args) (xrl.Args, error) {
		net, err := args.NetArg("network")
		if err != nil {
			return nil, err
		}
		var cost uint32
		opt := optionals{args: args}
		if opt.u32("cost", &cost); opt.err != nil {
			return nil, opt.err
		}
		return nil, s.Originate(net, cost)
	})
	b.handle("withdraw", func(args xrl.Args) (xrl.Args, error) {
		net, err := args.NetArg("network")
		if err != nil {
			return nil, err
		}
		return nil, s.Withdraw(net)
	})
	b.done()
}

// RIPSpec declares rip/0.1: external control of the RIP process.
var RIPSpec = Define(Spec{
	Name:    "rip",
	Version: "0.1",
	Methods: []Method{
		{Name: "add_static_route", Args: []Arg{
			{Name: "network", Type: xrl.TypeIPv4Net},
			{Name: "metric", Type: xrl.TypeU32, Optional: true},
		}},
		{Name: "delete_static_route", Args: []Arg{
			{Name: "network", Type: xrl.TypeIPv4Net},
		}},
	},
})

// RIPServer is the typed implementation contract for rip/0.1.
type RIPServer interface {
	AddStaticRoute(net netip.Prefix, metric uint32) error
	DeleteStaticRoute(net netip.Prefix) error
}

// BindRIP wires a RIPServer onto t as rip/0.1.
func BindRIP(t *xipc.Target, s RIPServer) {
	b := newBinding(t, RIPSpec)
	b.handle("add_static_route", func(args xrl.Args) (xrl.Args, error) {
		net, err := args.NetArg("network")
		if err != nil {
			return nil, err
		}
		var metric uint32
		opt := optionals{args: args}
		if opt.u32("metric", &metric); opt.err != nil {
			return nil, opt.err
		}
		return nil, s.AddStaticRoute(net, metric)
	})
	b.handle("delete_static_route", func(args xrl.Args) (xrl.Args, error) {
		net, err := args.NetArg("network")
		if err != nil {
			return nil, err
		}
		return nil, s.DeleteStaticRoute(net)
	})
	b.done()
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
	b.handle("sink", func(args xrl.Args) (xrl.Args, error) { return s.Sink(args) })
	b.done()
}
