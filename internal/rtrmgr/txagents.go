package rtrmgr

import (
	"fmt"
	"slices"
	"sync"

	"xorp/internal/eventloop"
	"xorp/internal/rib"
	"xorp/internal/route"
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
	// inst is the module instance the agent serves (nil for the fea and
	// rib agents, which reach r.FIB / r.RIB directly).
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
		a.r.syncDo(a.loop, func() {
			if steps, nack := a.stageAll(changes); nack != "" {
				err = fmt.Errorf("rtrmgr: %s: %s", a.class, nack)
			} else {
				_, err = a.applyAll(steps)
			}
		})
	}
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

// onRIB runs fn on the RIB loop and waits. With a shared loop (all
// simulated assemblies) the agent is already on it, so the call is
// direct; with per-process loops the RIB loop runs on its own
// goroutine, so a blocking hop is safe.
func (a *txAgent) onRIB(fn func() error) error {
	ribLoop := a.r.RIB.Loop()
	if ribLoop == a.loop {
		return fn()
	}
	var err error
	ribLoop.DispatchAndWait(func() { err = fn() })
	return err
}

// --- FEA: interface additions only. Removing or renumbering a live
// interface strands connected routes and bound sockets — restart.

func (a *txAgent) stageFEA(c Change) ([]txStep, string, error) {
	if len(c.Path) < 2 || c.Path[0] != "interfaces" {
		return nil, "unsupported FEA change", nil
	}
	if c.Verb != ChangeAdd {
		return nil, "interface removal or renumbering requires a restart", nil
	}
	name := c.New.Key
	pfx, mtu, err := parseInterface(c.New)
	if err != nil {
		return nil, "", err
	}
	return []txStep{{
		desc:  "add interface " + name,
		apply: func() error { return a.onRIB(func() error { return a.r.addInterface(name, pfx, mtu) }) },
	}}, "", nil
}

// --- RIB: static route set changes.

func (a *txAgent) stageRIB(c Change) ([]txStep, string, error) {
	if len(c.Path) < 2 || c.Path[0] != "static" {
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

// stageRedist handles a `redistribute <proto> [policy]` statement of the
// agent's class: add splices a fresh RIB redist stage feeding out,
// remove unsplices it, and the synthetic policy-edit modify swaps the
// filter in place.
func (a *txAgent) stageRedist(c Change, out rib.Redistributor) ([]txStep, string, error) {
	if c.Verb == ChangeRemove {
		name := redistName(a.class, c.Old.Arg(0))
		return []txStep{{
			desc: "remove redist " + name,
			apply: func() error {
				return a.onRIB(func() error {
					if err := a.r.RIB.RemoveRedist(name); err != nil {
						return err
					}
					a.r.procMu.Lock()
					defer a.r.procMu.Unlock()
					if i := slices.Index(a.inst.redists, name); i >= 0 {
						a.inst.redists = slices.Delete(a.inst.redists, i, i+1)
					}
					return nil
				})
			},
		}}, "", nil
	}
	if c.New == nil {
		return nil, "unsupported redistribute change", nil
	}
	proto, filter, err := redistFilter(c.New)
	if err != nil {
		return nil, "", err
	}
	name := redistName(a.class, proto)
	if c.Verb == ChangeModify {
		// Policy body edit: recompile and swap the filter in place.
		return []txStep{{
			desc: "re-filter " + name,
			apply: func() error {
				return a.onRIB(func() error { return a.r.RIB.SetRedistFilter(name, filter) })
			},
		}}, "", nil
	}
	return []txStep{{
		desc: "add redist " + name,
		apply: func() error {
			return a.onRIB(func() error { return a.r.addRedist(a.inst, proto, filter, out) })
		},
	}}, "", nil
}
