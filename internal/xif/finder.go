package xif

import (
	"xorp/internal/xipc"
	"xorp/internal/xrl"
)

// FinderSpec declares finder/1.0: registration, resolution, lifetime
// watching and access control (paper §6.2, §7). resolve maps one
// command, its interface version included, to the instance that
// registered it, its method key and its endpoints; a command no instance
// registered fails with RESOLVE_FAILED.
var FinderSpec = Define(Spec{
	Name:    "finder",
	Version: "1.0",
	Methods: []Method{
		{Name: "register_target", Args: []Arg{
			{Name: "instance", Type: xrl.TypeText},
			{Name: "class", Type: xrl.TypeText},
			{Name: "sole", Type: xrl.TypeBool},
			{Name: "endpoints", Type: xrl.TypeList},
		}},
		// register_methods re-issues the same keys on duplicate delivery
		// and unregistering a gone instance is a no-op, so both retry
		// safely; register_target rejects duplicates and must not.
		{Name: "register_methods", Args: []Arg{
			{Name: "instance", Type: xrl.TypeText, Sample: "sample"},
			{Name: "commands", Type: xrl.TypeList},
		}, Rets: []Arg{
			{Name: "keys", Type: xrl.TypeList},
		}, Idempotent: true},
		{Name: "unregister_target", Args: []Arg{
			{Name: "instance", Type: xrl.TypeText},
		}, Idempotent: true},
		{Name: "resolve", Args: []Arg{
			{Name: "caller", Type: xrl.TypeText},
			{Name: "target", Type: xrl.TypeText, Sample: "sample"},
			{Name: "command", Type: xrl.TypeText, Sample: "common/0.1/get_status"},
		}, Rets: []Arg{
			{Name: "instance", Type: xrl.TypeText},
			{Name: "key", Type: xrl.TypeText},
			{Name: "endpoints", Type: xrl.TypeList},
		}, Idempotent: true},
		{Name: "watch", Args: []Arg{
			{Name: "watcher", Type: xrl.TypeText},
			{Name: "class", Type: xrl.TypeText},
		}, Idempotent: true},
		{Name: "targets", Rets: []Arg{
			{Name: "targets", Type: xrl.TypeList},
		}, Idempotent: true},
		{Name: "add_permission", Args: []Arg{
			{Name: "caller", Type: xrl.TypeText},
			{Name: "target", Type: xrl.TypeText},
			{Name: "command", Type: xrl.TypeText},
		}},
		{Name: "set_strict", Args: []Arg{
			{Name: "strict", Type: xrl.TypeBool},
		}},
	},
})

// FinderResolution is the reply to resolve.
type FinderResolution struct {
	Instance  string
	Key       string
	Endpoints []string
}

// FinderServer is the typed implementation contract for finder/1.0.
type FinderServer interface {
	RegisterTarget(instance, class string, sole bool, endpoints []string) error
	RegisterMethods(instance string, commands []string) (keys []string, err error)
	UnregisterTarget(instance string) error
	Resolve(caller, target, command string) (FinderResolution, error)
	Watch(watcher, class string) error
	Targets() ([]string, error)
	AddPermission(caller, target, command string) error
	SetStrict(strict bool) error
}

func textList(items []xrl.Atom) []string {
	out := make([]string, len(items))
	for i, it := range items {
		out[i] = it.TextVal
	}
	return out
}

func textAtoms(name string, vals []string) xrl.Atom {
	items := make([]xrl.Atom, len(vals))
	for i, v := range vals {
		items[i] = xrl.Text("", v)
	}
	return xrl.List(name, items...)
}

// BindFinder wires a FinderServer onto t as finder/1.0.
func BindFinder(t *xipc.Target, s FinderServer) {
	b := newBinding(t, FinderSpec)
	b.handle("register_target", func(in reader) (xrl.Args, error) {
		return nil, s.RegisterTarget(in.text("instance"), in.text("class"), in.boolean("sole"), in.texts("endpoints"))
	})
	b.handle("register_methods", func(in reader) (xrl.Args, error) {
		keys, err := s.RegisterMethods(in.text("instance"), in.texts("commands"))
		if err != nil {
			return nil, err
		}
		return xrl.Args{textAtoms("keys", keys)}, nil
	})
	b.handle("unregister_target", func(in reader) (xrl.Args, error) {
		return nil, s.UnregisterTarget(in.text("instance"))
	})
	b.handle("resolve", func(in reader) (xrl.Args, error) {
		res, err := s.Resolve(in.text("caller"), in.text("target"), in.text("command"))
		if err != nil {
			return nil, err
		}
		return xrl.Args{
			xrl.Text("instance", res.Instance),
			xrl.Text("key", res.Key),
			textAtoms("endpoints", res.Endpoints),
		}, nil
	})
	b.handle("watch", func(in reader) (xrl.Args, error) {
		return nil, s.Watch(in.text("watcher"), in.text("class"))
	})
	b.handle("targets", func(reader) (xrl.Args, error) {
		ts, err := s.Targets()
		if err != nil {
			return nil, err
		}
		return xrl.Args{textAtoms("targets", ts)}, nil
	})
	b.handle("add_permission", func(in reader) (xrl.Args, error) {
		return nil, s.AddPermission(in.text("caller"), in.text("target"), in.text("command"))
	})
	b.handle("set_strict", func(in reader) (xrl.Args, error) {
		return nil, s.SetStrict(in.boolean("strict"))
	})
	b.done()
}

// FinderClient is the typed stub for finder/1.0 (always addressed to the
// well-known Finder target).
type FinderClient struct{ r *xipc.Router }

// NewFinderClient returns a stub calling the Finder through r.
func NewFinderClient(r *xipc.Router) *FinderClient {
	return &FinderClient{r: r}
}

func (c *FinderClient) send(method string, args xrl.Args, cb xipc.Callback) {
	c.r.Send(FinderSpec.NewXRL(xipc.FinderTargetName, method, args...), cb)
}

// RegisterTarget announces instance/class with its transport endpoints.
func (c *FinderClient) RegisterTarget(instance, class string, sole bool, endpoints []string, done func(error)) {
	c.send("register_target", xrl.Args{
		xrl.Text("instance", instance),
		xrl.Text("class", class),
		xrl.Bool("sole", sole),
		textAtoms("endpoints", endpoints),
	}, Done(done))
}

// RegisterMethods registers commands and returns the Finder-issued
// method keys, one per command, in order.
func (c *FinderClient) RegisterMethods(instance string, commands []string, cb func(keys []string, err *xrl.Error)) {
	c.send("register_methods", xrl.Args{
		xrl.Text("instance", instance),
		textAtoms("commands", commands),
	}, func(args xrl.Args, err *xrl.Error) {
		ret, err := FinderSpec.reply("register_methods", args, err)
		cb(ret.texts("keys"), err)
	})
}

// UnregisterTarget removes the instance from the Finder.
func (c *FinderClient) UnregisterTarget(instance string, done func(error)) {
	c.send("unregister_target", xrl.Args{xrl.Text("instance", instance)}, Done(done))
}

// Watch subscribes watcher to birth/death events for class ("*" = all).
func (c *FinderClient) Watch(watcher, class string, done func(error)) {
	c.send("watch", xrl.Args{
		xrl.Text("watcher", watcher),
		xrl.Text("class", class),
	}, Done(done))
}

// Targets lists registered components as "instance:class" strings.
func (c *FinderClient) Targets(cb func(targets []string, err *xrl.Error)) {
	c.send("targets", nil, func(args xrl.Args, err *xrl.Error) {
		ret, err := FinderSpec.reply("targets", args, err)
		cb(ret.texts("targets"), err)
	})
}

// AddPermission allows caller to call command on target ("*" wildcards).
func (c *FinderClient) AddPermission(caller, target, command string, done func(error)) {
	c.send("add_permission", xrl.Args{
		xrl.Text("caller", caller),
		xrl.Text("target", target),
		xrl.Text("command", command),
	}, Done(done))
}

// SetStrict switches the resolver to deny-by-default.
func (c *FinderClient) SetStrict(strict bool, done func(error)) {
	c.send("set_strict", xrl.Args{xrl.Bool("strict", strict)}, Done(done))
}

// FinderEventSpec declares finder_client/1.0 (XORP's
// finder_event_observer): the Finder's push channel into every component
// — lifetime events, cache invalidation and liveness pings. Routers
// implement it internally (xipc handles dispatch), so there is no Bind;
// the spec exists for the registry, call_xrl and the Finder-side stub.
var FinderEventSpec = Define(Spec{
	Name:    "finder_client",
	Version: "1.0",
	Methods: []Method{
		{Name: "birth", Args: finderEventArgs},
		{Name: "death", Args: finderEventArgs},
		{Name: "invalidate", Args: []Arg{
			{Name: "instance", Type: xrl.TypeText},
		}},
		{Name: "ping"},
	},
})

var finderEventArgs = []Arg{
	{Name: "class", Type: xrl.TypeText},
	{Name: "instance", Type: xrl.TypeText},
}

// FinderEventClient is the typed stub for finder_client/1.0 (the Finder's
// side); the destination target varies per registered component.
type FinderEventClient struct{ r *xipc.Router }

// NewFinderEventClient returns a stub pushing finder_client/1.0 events
// through r.
func NewFinderEventClient(r *xipc.Router) *FinderEventClient {
	return &FinderEventClient{r: r}
}

func (c *FinderEventClient) send(target, method string, args xrl.Args, cb xipc.Callback) {
	c.r.Send(FinderEventSpec.NewXRL(target, method, args...), cb)
}

// Birth pushes a component-birth event to watcher.
func (c *FinderEventClient) Birth(watcher, class, instance string, done func(error)) {
	c.send(watcher, "birth", xrl.Args{
		xrl.Text("class", class), xrl.Text("instance", instance),
	}, Done(done))
}

// Death pushes a component-death event to watcher.
func (c *FinderEventClient) Death(watcher, class, instance string, done func(error)) {
	c.send(watcher, "death", xrl.Args{
		xrl.Text("class", class), xrl.Text("instance", instance),
	}, Done(done))
}

// Invalidate tells target to drop cached resolutions of instance.
func (c *FinderEventClient) Invalidate(target, instance string, done func(error)) {
	c.send(target, "invalidate", xrl.Args{xrl.Text("instance", instance)}, Done(done))
}

// Ping probes target's liveness.
func (c *FinderEventClient) Ping(target string, cb xipc.Callback) {
	c.send(target, "ping", nil, cb)
}
