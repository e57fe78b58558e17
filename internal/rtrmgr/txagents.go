package rtrmgr

import (
	"fmt"
	"sync"
)

// txAgent is one process's side of the config/0.1 transaction protocol
// (xif.ConfigServer). validate_tx decodes its change slice, checks each
// change against live process state, and stages apply closures;
// commit_tx runs them; abort_tx discards them. Handlers run on the
// owning process's event loop (XRL dispatch), so staged closures touch
// process state loop-safely. A respawned process gets a fresh agent
// with no staged state — a commit_tx arriving after a mid-transaction
// crash therefore fails, which is exactly what forces the coordinator
// to roll back. The agent knows nothing of the coordinator but what
// arrives on the wire.
type txAgent struct {
	class string
	// stage validates one change and returns its apply steps (or a nack
	// reason for changes this process cannot absorb without a restart):
	// the class's proc.stage behind build's guard on path shape and
	// identity units.
	stage func(c Change) ([]txStep, string, error)

	mu    sync.Mutex
	txID  uint32 // the staged transaction; 0, which no coordinator issues, is none
	steps []txStep
	// txGen is the generation of the staged transaction, committed the
	// generation of the last one committed: a transaction built against
	// an older tree is stale.
	txGen, committed uint32
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
	if txID == 0 {
		return false, "transaction 0 is reserved", nil
	}
	if generation < a.committed {
		return false, fmt.Sprintf("stale generation %d (committed %d)", generation, a.committed), nil
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
	a.txID, a.steps, a.txGen = txID, steps, generation
	return true, "", nil
}

// CommitTx implements xif.ConfigServer: run the staged steps.
func (a *txAgent) CommitTx(txID uint32) (uint32, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if txID == 0 || a.txID != txID {
		return 0, fmt.Errorf("%s: no staged transaction %d", a.class, txID)
	}
	steps := a.steps
	a.txID, a.steps, a.committed = 0, nil, a.txGen
	return a.applyAll(steps)
}

// stageAll stages changes in order (validate_tx): the steps of all of
// them, or the first one's nack.
func (a *txAgent) stageAll(changes []Change) (steps []txStep, nack string) {
	for _, c := range changes {
		ss, reason, err := a.stage(c)
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

// configure applies the agent's slice of a boot plan to its process, not
// yet live, on its loop, as validate_tx and commit_tx would: there is
// nothing to roll back, so an error fails the boot.
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
