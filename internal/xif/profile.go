package xif

import (
	"xorp/internal/xipc"
	"xorp/internal/xrl"
)

// ProfileSpec declares profile/0.1: the control interface for the
// paper's §8.2 profiling points, mirrored from xorp_profiler's protocol.
var ProfileSpec = Define(Spec{
	Name:    "profile",
	Version: "0.1",
	Methods: []Method{
		{Name: "enable", Args: profilePointArgs},
		{Name: "disable", Args: profilePointArgs},
		{Name: "clear", Args: profilePointArgs},
		{Name: "list", Rets: []Arg{{Name: "points", Type: xrl.TypeText}}},
		{Name: "get_entries", Args: profilePointArgs,
			Rets: []Arg{{Name: "entries", Type: xrl.TypeList}}},
	},
})

var profilePointArgs = []Arg{{Name: "pname", Type: xrl.TypeText}}

// ProfileServer is the typed implementation contract for profile/0.1.
type ProfileServer interface {
	ProfileEnable(pname string) error
	ProfileDisable(pname string) error
	ProfileClear(pname string) error
	ProfileList() (string, error)
	ProfileEntries(pname string) ([]string, error)
}

// BindProfile wires a ProfileServer onto t as profile/0.1.
func BindProfile(t *xipc.Target, s ProfileServer) {
	b := newBinding(t, ProfileSpec)
	point := func(fn func(string) error) func(reader) (xrl.Args, error) {
		return func(in reader) (xrl.Args, error) { return nil, fn(in.text("pname")) }
	}
	b.handle("enable", point(s.ProfileEnable))
	b.handle("disable", point(s.ProfileDisable))
	b.handle("clear", point(s.ProfileClear))
	b.handle("list", func(reader) (xrl.Args, error) {
		points, err := s.ProfileList()
		if err != nil {
			return nil, err
		}
		return xrl.Args{xrl.Text("points", points)}, nil
	})
	b.handle("get_entries", func(in reader) (xrl.Args, error) {
		entries, err := s.ProfileEntries(in.text("pname"))
		if err != nil {
			return nil, err
		}
		return xrl.Args{textAtoms("entries", entries)}, nil
	})
	b.done()
}

// ProfileClient is the typed stub for profile/0.1.
type ProfileClient struct{ client }

// NewProfileClient returns a stub controlling target's profiling points
// through r.
func NewProfileClient(r *xipc.Router, target string) *ProfileClient {
	return &ProfileClient{newClient(r, target, ProfileSpec)}
}

func (c *ProfileClient) pointCall(method, pname string, done func(error)) {
	c.call(method, Done(done), xrl.Text("pname", pname))
}

// Enable turns a profiling point on.
func (c *ProfileClient) Enable(pname string, done func(error)) {
	c.pointCall("enable", pname, done)
}

// Disable turns a profiling point off (records are kept).
func (c *ProfileClient) Disable(pname string, done func(error)) {
	c.pointCall("disable", pname, done)
}

// Clear drops a point's records.
func (c *ProfileClient) Clear(pname string, done func(error)) {
	c.pointCall("clear", pname, done)
}

// List fetches the space-separated point names.
func (c *ProfileClient) List(cb func(points string, err *xrl.Error)) {
	c.call("list", func(args xrl.Args, err *xrl.Error) {
		ret, err := ProfileSpec.reply("list", args, err)
		cb(ret.text("points"), err)
	})
}

// GetEntries fetches a point's time-stamped records.
func (c *ProfileClient) GetEntries(pname string, cb func(entries []string, err *xrl.Error)) {
	c.call("get_entries", func(args xrl.Args, err *xrl.Error) {
		ret, err := ProfileSpec.reply("get_entries", args, err)
		cb(ret.texts("entries"), err)
	}, xrl.Text("pname", pname))
}
