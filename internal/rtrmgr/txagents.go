package rtrmgr

import (
	"errors"
	"fmt"
	"net/netip"
	"sync"

	"xorp/internal/eventloop"
	"xorp/internal/route"
	"xorp/internal/xif"
)

// txAgent is one process's side of the config/0.1 transaction protocol
// (xif.ConfigServer). validate_tx decodes its change slice, checks each
// change against live process state, and stages apply closures;
// commit_tx runs them; abort_tx discards them. Handlers run on the
// owning process's event loop (XRL dispatch), so staged closures touch
// process state loop-safely. A respawned process gets a fresh agent
// with no staged state — a commit_tx arriving after a mid-transaction
// crash therefore fails, which is exactly what forces the coordinator
// to roll back.
type txAgent struct {
	r     *Router
	class string
	loop  *eventloop.Loop
	// inst is the module instance the agent serves; nil for the fea and
	// rib agents, the only ones whose steps touch r.FIB and r.RIB.
	inst *instance
	// stage validates one change and returns its apply steps (or a nack
	// reason for changes this process cannot absorb without a restart):
	// stageFEA, stageRIB, or the class's proc.stage behind setup's guard
	// on path length and identity units.
	stage func(a *txAgent, c Change) ([]txStep, string, error)

	mu    sync.Mutex
	txID  uint32
	steps []txStep
}

// txStep is one staged apply action.
type txStep struct {
	desc  string
	apply func() error
}

// ValidateTx implements xif.ConfigServer: stage or nack.
func (a *txAgent) ValidateTx(txID, generation uint32, encoded []string) (bool, string, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if gen := a.r.Generation(); generation != gen {
		return false, fmt.Sprintf("stale generation %d (running %d)", generation, gen), nil
	}
	if a.txID != 0 && a.txID != txID {
		return false, fmt.Sprintf("transaction %d already staged", a.txID), nil
	}
	a.txID, a.steps = 0, nil // revalidation replaces any prior staging
	changes, err := DecodeChanges(encoded)
	if err != nil {
		return false, err.Error(), nil
	}
	steps, reason := a.stageAll(changes)
	if reason != "" {
		return false, reason, nil
	}
	a.txID, a.steps = txID, steps
	return true, "", nil
}

// CommitTx implements xif.ConfigServer: run the staged steps.
func (a *txAgent) CommitTx(txID uint32) (uint32, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.txID != txID {
		return 0, fmt.Errorf("%s: no staged transaction %d", a.class, txID)
	}
	steps := a.steps
	a.txID, a.steps = 0, nil
	return a.applyAll(steps)
}

// stageAll stages changes in order (validate_tx): the steps of all of
// them, or the first one's nack.
func (a *txAgent) stageAll(changes []Change) (steps []txStep, nack string) {
	for _, c := range changes {
		ss, reason, err := a.stage(a, c)
		if err != nil {
			reason = err.Error()
		}
		if reason != "" {
			return nil, c.PathString() + ": " + reason
		}
		steps = append(steps, ss...)
	}
	return steps, ""
}

// applyAll runs staged steps in order (commit_tx), stopping at the first
// that fails: how many ran, and its error.
func (a *txAgent) applyAll(steps []txStep) (uint32, error) {
	for i, st := range steps {
		if err := st.apply(); err != nil {
			return uint32(i), fmt.Errorf("%s: %s: %w", a.class, st.desc, err)
		}
	}
	return uint32(len(steps)), nil
}

// boot configures the agent's process, not yet live, with its slice of a
// boot plan, on its loop as validate_tx and commit_tx would: there is
// nothing to roll back, so an error fails the boot.
func (a *txAgent) boot(changes []Change) (err error) {
	if len(changes) > 0 {
		a.r.syncDo(a.loop, func() { err = a.configure(changes) })
	}
	return err
}

// configure is boot run on the agent's loop.
func (a *txAgent) configure(changes []Change) error {
	steps, nack := a.stageAll(changes)
	if nack != "" {
		return fmt.Errorf("rtrmgr: %s: %s", a.class, nack)
	}
	_, err := a.applyAll(steps)
	return err
}

// AbortTx implements xif.ConfigServer (idempotent).
func (a *txAgent) AbortTx(txID uint32) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.txID == txID {
		a.txID, a.steps = 0, nil
	}
	return nil
}

// --- FEA: interface additions only.

func (a *txAgent) stageFEA(c Change) ([]txStep, string, error) {
	name, pfx, mtu, err := interfaceAdd(c)
	if err != nil {
		return nil, "", err
	}
	return []txStep{{
		desc:  "add interface " + name,
		apply: func() error { a.r.FIB.AddInterface(name, pfx, mtu); return nil },
	}}, "", nil
}

// interfaceAdd parses an `interfaces` change, which may only add:
// removing or renumbering a live interface strands connected routes and
// bound sockets — restart.
func interfaceAdd(c Change) (name string, pfx netip.Prefix, mtu int, err error) {
	if len(c.Path) < 2 || c.Path[0] != "interfaces" {
		return "", pfx, 0, errors.New("unsupported interfaces change")
	}
	if c.Verb != ChangeAdd {
		return "", pfx, 0, errors.New("interface removal or renumbering requires a restart")
	}
	pfx, mtu, err = parseInterface(c.New)
	return c.New.Key, pfx, mtu, err
}

// --- RIB: connected routes, static route set changes and
// redistribution.

func (a *txAgent) stageRIB(c Change) ([]txStep, string, error) {
	switch {
	case len(c.Path) > 0 && c.Path[0] == "interfaces":
		name, pfx, _, err := interfaceAdd(c)
		if err != nil {
			return nil, "", err
		}
		e := route.Entry{Net: pfx.Masked(), IfName: name}
		return []txStep{{
			desc:  "add connected " + e.Net.String(),
			apply: func() error { return a.r.RIB.AddRoute(route.ProtoConnected, e) },
		}}, "", nil
	case len(c.Path) == 3 && c.Path[0] == "protocols" && owner(c.Path[2], c.Path[1]) == "rib":
		return a.stageRedist(c)
	case len(c.Path) < 2 || c.Path[0] != "static":
		return nil, "unsupported RIB change", nil
	}
	var steps []txStep
	if c.Old != nil { // remove (or the removal half of a modify)
		e, err := parseStaticRoute(c.Old)
		if err != nil {
			return nil, "", err
		}
		steps = append(steps, txStep{
			desc:  "delete static " + e.Net.String(),
			apply: func() error { return a.r.RIB.DeleteRoute(route.ProtoStatic, e.Net) },
		})
	}
	if c.New != nil { // add
		e, err := parseStaticRoute(c.New)
		if err != nil {
			return nil, "", err
		}
		steps = append(steps, txStep{
			desc:  "add static " + e.Net.String(),
			apply: func() error { return a.r.RIB.AddRoute(route.ProtoStatic, e) },
		})
	}
	return steps, "", nil
}

// stageRedist handles a `protocols <class> { redistribute <proto>
// [policy]; }` statement: add splices a fresh redist stage feeding the
// class over redist4/0.1 XRLs from the RIB's router, tied to the class's
// Finder lifetime; remove unsplices it and withdraws what it fed; and the
// synthetic policy-edit modify swaps the filter in place.
func (a *txAgent) stageRedist(c Change) ([]txStep, string, error) {
	class := c.Path[1]
	if c.Verb == ChangeRemove {
		name := redistName(class, c.Old.Arg(0))
		return []txStep{{
			desc:  "remove redist " + name,
			apply: func() error { return a.r.RIB.RemoveRedist(name) },
		}}, "", nil
	}
	if c.New == nil {
		return nil, "unsupported redistribute change", nil
	}
	proto, filter, err := redistFilter(c.New)
	if err != nil {
		return nil, "", err
	}
	name := redistName(class, proto)
	if c.Verb == ChangeModify {
		// Policy body edit: recompile and swap the filter in place.
		return []txStep{{
			desc:  "re-filter " + name,
			apply: func() error { return a.r.RIB.SetRedistFilter(name, filter) },
		}}, "", nil
	}
	out := xif.NewRedist4Client(a.r.RIBRouter, class)
	return []txStep{{
		desc: "add redist " + name,
		apply: func() error {
			_, err := a.r.RIB.AddRedist(name, class, filter, out)
			return err
		},
	}}, "", nil
}

// redistName names the RIB stage redistributing proto into class.
func redistName(class, proto string) string { return "to-" + class + "-" + proto }
