package xif

import (
	"fmt"

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

// handle registers h for the spec method named method. A call reaches h
// only once its arguments pass the method's declaration (CheckArgs, the
// check the stubs run before they send); one that does not is
// xrl.CodeBadArgs. h reads the checked arguments through a reader.
func (b *binding) handle(method string, h func(in reader) (xrl.Args, error)) {
	m, ok := b.s.Method(method)
	if !ok {
		panic(fmt.Sprintf("xif: spec %s/%s declares no method %q", b.s.Name, b.s.Version, method))
	}
	if b.seen[method] {
		panic(fmt.Sprintf("xif: method %s bound twice on %s", b.s.Command(method), b.t.Name))
	}
	b.seen[method] = true
	b.t.Register(b.s.Name, b.s.Version, method, func(args xrl.Args) (xrl.Args, error) {
		if err := m.CheckArgs(args); err != nil {
			return nil, &xrl.Error{Code: xrl.CodeBadArgs, Note: err.Error()}
		}
		return h(reader{args: args, decl: m.Args})
	})
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
