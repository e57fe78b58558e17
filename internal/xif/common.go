package xif

import (
	"sort"
	"strings"

	"xorp/internal/xipc"
	"xorp/internal/xrl"
)

// TargetVersion is the version string every target reports through
// common/0.1 get_version.
const TargetVersion = "xorp-go/1.1"

// CommonSpec is the XORP-standard common/0.1 target introspection
// interface, implemented by every target created with NewTarget.
var CommonSpec = Define(Spec{
	Name:    "common",
	Version: "0.1",
	Methods: []Method{
		// Pure introspection reads: always safe to retry.
		{Name: "get_target_name", Idempotent: true,
			Rets: []Arg{{Name: "name", Type: xrl.TypeText}}},
		{Name: "get_version", Idempotent: true,
			Rets: []Arg{{Name: "version", Type: xrl.TypeText}}},
		{Name: "get_status", Idempotent: true, Rets: []Arg{
			{Name: "status", Type: xrl.TypeText},
			{Name: "reason", Type: xrl.TypeText},
		}},
		{Name: "get_interfaces", Idempotent: true,
			Rets: []Arg{{Name: "interfaces", Type: xrl.TypeList}}},
	},
})

// NewTarget returns a Target with the common/0.1 introspection interface
// already bound. All production targets are created here, so every
// component answers get_target_name/get_version/get_status/get_interfaces
// — the hook the rtrmgr and call_xrl use to discover what a live process
// speaks.
func NewTarget(name, class string) *xipc.Target {
	t := xipc.NewTarget(name, class)
	BindCommon(t)
	return t
}

// BindCommon wires common/0.1 onto t. get_interfaces is derived from the
// target's registered commands at call time, so it reflects every
// interface bound after this call too.
func BindCommon(t *xipc.Target) {
	b := newBinding(t, CommonSpec)
	b.handle("get_target_name", func(reader) (xrl.Args, error) {
		return xrl.Args{xrl.Text("name", t.Name)}, nil
	})
	b.handle("get_version", func(reader) (xrl.Args, error) {
		return xrl.Args{xrl.Text("version", TargetVersion)}, nil
	})
	b.handle("get_status", func(reader) (xrl.Args, error) {
		return xrl.Args{xrl.Text("status", "READY"), xrl.Text("reason", "")}, nil
	})
	b.handle("get_interfaces", func(reader) (xrl.Args, error) {
		return xrl.Args{textAtoms("interfaces", TargetInterfaces(t))}, nil
	})
	b.done()
}

// TargetInterfaces lists the "iface/version" pairs t implements, sorted,
// derived from its registered commands.
func TargetInterfaces(t *xipc.Target) []string {
	seen := make(map[string]bool)
	var out []string
	for _, cmd := range t.Commands() {
		// cmd = iface/version/method
		if i := strings.LastIndexByte(cmd, '/'); i > 0 {
			iv := cmd[:i]
			if !seen[iv] {
				seen[iv] = true
				out = append(out, iv)
			}
		}
	}
	sort.Strings(out)
	return out
}

// CommonClient is the typed stub for common/0.1.
type CommonClient struct{ client }

// NewCommonClient returns a stub calling target's common/0.1 interface
// through r.
func NewCommonClient(r *xipc.Router, target string) *CommonClient {
	return &CommonClient{newClient(r, target, CommonSpec)}
}

// GetInterfaces fetches the "iface/version" pairs the target implements.
func (c *CommonClient) GetInterfaces(cb func(ifaces []string, err *xrl.Error)) {
	c.call("get_interfaces",
		func(args xrl.Args, err *xrl.Error) {
			ret, err := CommonSpec.reply("get_interfaces", args, err)
			cb(ret.texts("interfaces"), err)
		})
}
