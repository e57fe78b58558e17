package xif

import (
	"fmt"
	"net/netip"

	"xorp/internal/xipc"
	"xorp/internal/xrl"
)

// binding wires one interface spec onto a Target. Every spec method must
// receive exactly one handler before done(); registering a method the
// spec does not declare panics. Binds run at process setup, so
// violations surface as startup panics — the registration-time check the
// stringly Target.Register API could not give.
type binding struct {
	t    *xipc.Target
	s    *Spec
	seen map[string]bool
}

func newBinding(t *xipc.Target, s *Spec) *binding {
	return &binding{t: t, s: s, seen: make(map[string]bool, len(s.Methods))}
}

// handle registers h for the spec method named method.
func (b *binding) handle(method string, h xipc.Handler) {
	if _, ok := b.s.Method(method); !ok {
		panic(fmt.Sprintf("xif: spec %s/%s declares no method %q", b.s.Name, b.s.Version, method))
	}
	if b.seen[method] {
		panic(fmt.Sprintf("xif: method %s bound twice on %s", b.s.Command(method), b.t.Name))
	}
	b.seen[method] = true
	b.t.Register(b.s.Name, b.s.Version, method, h)
}

// done verifies the binding covered the whole spec.
func (b *binding) done() {
	for i := range b.s.Methods {
		if !b.seen[b.s.Methods[i].Name] {
			panic(fmt.Sprintf("xif: target %s binding of %s/%s left method %q unimplemented",
				b.t.Name, b.s.Name, b.s.Version, b.s.Methods[i].Name))
		}
	}
}

// optionals reads the arguments a spec marks Optional. One left out of
// the call keeps its destination's zero value and costs nothing; one sent
// with the wrong type is xrl.CodeBadArgs, kept in err — never taken for
// an absent one. Handlers and reply decoders read every optional, then
// check err once.
type optionals struct {
	args xrl.Args
	err  error
}

func (o *optionals) get(name string, t xrl.AtomType) *xrl.Atom {
	a, err := o.args.Optional(name, t)
	if err != nil && o.err == nil {
		o.err = err
	}
	return a
}

func (o *optionals) u32(name string, dst *uint32) {
	if a := o.get(name, xrl.TypeU32); a != nil {
		*dst = uint32(a.IntVal)
	}
}

func (o *optionals) text(name string, dst *string) {
	if a := o.get(name, xrl.TypeText); a != nil {
		*dst = a.TextVal
	}
}

func (o *optionals) addr(name string, dst *netip.Addr) {
	if a := o.get(name, xrl.TypeIPv4); a != nil {
		*dst = a.AddrVal
	}
}

func (o *optionals) net(name string, dst *netip.Prefix) {
	if a := o.get(name, xrl.TypeIPv4Net); a != nil {
		*dst = a.NetVal
	}
}

// client is the shared base of the typed client stubs: a router, the
// destination target name, and the spec every outgoing call is checked
// against — interface name, version and method strings never appear in
// stub bodies, so a stub cannot drift from its declaration (send panics
// on an undeclared method or argument the first time the path runs).
type client struct {
	r      *xipc.Router
	target string
	spec   *Spec
}

// newClient advertises the spec's compatible versions on the router (so
// Finder resolution can negotiate) and returns the stub base.
func newClient(r *xipc.Router, target string, s *Spec) client {
	r.AdvertiseVersions(s.Name, s.Compatible...)
	return client{r: r, target: target, spec: s}
}

// call sends a spec-checked call of method to the stub's target.
func (c *client) call(method string, cb xipc.Callback, args ...xrl.Atom) {
	send(c.r, c.spec, c.target, method, cb, args)
}

// compose opens a call of method to the stub's target whose lists hold
// items atoms in all: its arguments are built in the call record, and
// ship sends it.
func (c *client) compose(method string, cb xipc.Callback, items int) xipc.Outgoing {
	m, _ := c.spec.Method(method) // an undeclared one panics in ship
	return c.r.Compose(xrl.XRL{Protocol: xrl.ProtoFinder, Target: c.target,
		Interface: c.spec.Name, Version: c.spec.Version, Method: method},
		cb, m != nil && m.Idempotent, items)
}

// ship checks a composed call of method against the spec, a violation
// dropping the call and panicking as in send, and sends it.
func (c *client) ship(method string, o xipc.Outgoing) {
	if err := c.spec.Check(method, o.Args()); err != nil {
		o.Abort()
		panic("xif: " + err.Error())
	}
	o.Send()
}

// anycast is the base of stubs whose destination target varies per call
// (push channels: the Finder's events, the RIB's invalidations, the
// FEA's datagram relay).
type anycast struct {
	r    *xipc.Router
	spec *Spec
}

func newAnycast(r *xipc.Router, s *Spec) anycast {
	r.AdvertiseVersions(s.Name, s.Compatible...)
	return anycast{r: r, spec: s}
}

// call sends a spec-checked call of method to an explicit target.
func (c *anycast) call(target, method string, cb xipc.Callback, args ...xrl.Atom) {
	send(c.r, c.spec, target, method, cb, args)
}

// send checks a call of method with args against s, a violation
// panicking as in Spec.NewXRL, and hands it to r.SendArgs, which copies
// args into its call record: a stub's arguments live on its stack. The
// route stubs, whose lists can be long, compose their calls instead.
// Methods the spec marks Idempotent ride the retrying path: a transient
// resolve/send failure (a crashed process mid-respawn, a torn
// connection) is retried with backoff instead of surfacing immediately.
func send(r *xipc.Router, s *Spec, target, method string, cb xipc.Callback, args xrl.Args) {
	if err := s.Check(method, args); err != nil {
		panic("xif: " + err.Error())
	}
	r.SendArgs(xrl.XRL{Protocol: xrl.ProtoFinder, Target: target,
		Interface: s.Name, Version: s.Version, Method: method},
		args, cb, s.byName[method].Idempotent)
}

// Done adapts a plain error callback to an xipc.Callback, for stub
// methods whose reply carries no values. A nil done produces a nil
// callback (fire-and-forget), avoiding the wrapper allocation on the
// hot paths that never inspect the reply.
func Done(done func(error)) xipc.Callback {
	if done == nil {
		return nil
	}
	return func(_ xrl.Args, err *xrl.Error) {
		if err != nil {
			done(err)
		} else {
			done(nil)
		}
	}
}
