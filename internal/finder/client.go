package finder

import (
	"fmt"

	"xorp/internal/xif"
	"xorp/internal/xipc"
	"xorp/internal/xrl"
)

// RegisterTarget registers target t — hosted by router r — with the
// Finder: it announces the instance with r's transport endpoints, then
// registers every method (none is a registration too: it is what the
// Finder announces as the instance's birth), recording the Finder-issued
// keys on t so the router enforces them on dispatch. Each command is
// registered, and later resolved, exactly as t names it, interface
// version included. done runs on r's loop.
//
// Registration also primes the xrl codec's intern table with the
// instance, class and command strings: every frame addressed to t decodes
// those fields allocation-free from the very first call.
func RegisterTarget(r *xipc.Router, t *xipc.Target, sole bool, done func(error)) {
	if done == nil {
		done = func(error) {}
	}
	xrl.Intern(t.Name)
	xrl.Intern(t.Class)
	for _, c := range t.Commands() {
		xrl.Intern(c)
	}
	fc := xif.NewFinderClient(r)
	fc.RegisterTarget(t.Name, t.Class, sole, r.Endpoints(), func(err error) {
		if err != nil {
			done(err)
			return
		}
		cmds := t.Commands()
		fc.RegisterMethods(t.Name, cmds, func(keys []string, xerr *xrl.Error) {
			if xerr != nil {
				done(xerr)
				return
			}
			if len(keys) != len(cmds) {
				done(fmt.Errorf("finder: malformed register_methods reply"))
				return
			}
			for i, c := range cmds {
				t.SetMethodKey(c, keys[i])
			}
			done(nil)
		})
	})
}

// RegisterTargetSync is RegisterTarget for code running outside the event
// loop (process setup, tests).
func RegisterTargetSync(r *xipc.Router, t *xipc.Target, sole bool) error {
	ch := make(chan error, 1)
	RegisterTarget(r, t, sole, func(err error) { ch <- err })
	return <-ch
}

// UnregisterTarget removes the instance from the Finder.
func UnregisterTarget(r *xipc.Router, instance string, done func(error)) {
	xif.NewFinderClient(r).UnregisterTarget(instance, done)
}

// Watch subscribes watcherTarget to birth/death events for class ("*" for
// all classes). Events arrive via the router's SetFinderEvent callback.
func Watch(r *xipc.Router, watcherTarget, class string, done func(error)) {
	xif.NewFinderClient(r).Watch(watcherTarget, class, done)
}
