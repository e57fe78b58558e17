package xif

import (
	"xorp/internal/xipc"
	"xorp/internal/xrl"
)

// ConfigSpec declares config/0.1: the rtrmgr's transactional
// reconfiguration interface. A config reload is a two-phase commit
// driven by the rtrmgr coordinator: every affected process first
// receives validate_tx with its slice of the change plan and checks it
// against live state (staging the apply without touching anything);
// only if every participant acks does the coordinator send commit_tx,
// otherwise abort_tx discards the staged changes everywhere and the
// running configuration is untouched.
var ConfigSpec = Define(Spec{
	Name:    "config",
	Version: "0.1",
	Methods: []Method{
		// validate_tx opens transaction tx_id at configuration
		// generation and stages the listed changes (one encoded change
		// per list item). ok=false rejects the transaction with a
		// human-readable reason; the coordinator then aborts everywhere.
		{Name: "validate_tx", Args: []Arg{
			{Name: "tx_id", Type: xrl.TypeU32},
			{Name: "generation", Type: xrl.TypeU32},
			{Name: "changes", Type: xrl.TypeList},
		}, Rets: []Arg{
			{Name: "ok", Type: xrl.TypeBool},
			{Name: "reason", Type: xrl.TypeText},
		}},
		// commit_tx applies the staged changes of tx_id in place.
		// Returns how many changes were applied. Failing (an error
		// reply, or an unknown tx_id after a process restart) makes the
		// coordinator roll back already-committed participants.
		{Name: "commit_tx", Args: []Arg{
			{Name: "tx_id", Type: xrl.TypeU32},
		}, Rets: []Arg{
			{Name: "applied", Type: xrl.TypeU32},
		}},
		// abort_tx discards the staged changes of tx_id. Aborting an
		// unknown transaction is a no-op, so the abort may be retried
		// across a restart window.
		{Name: "abort_tx", Args: []Arg{
			{Name: "tx_id", Type: xrl.TypeU32},
		}, Idempotent: true},
	},
})

// ConfigServer is the typed implementation contract for config/0.1: the
// per-process transaction agent the rtrmgr binds onto each process
// target. Handlers run on the owning process's event loop.
type ConfigServer interface {
	// ValidateTx stages changes for txID, validating against live
	// state. A rejection is (false, reason, nil); an error reply is
	// reserved for transport-level trouble.
	ValidateTx(txID, generation uint32, changes []string) (bool, string, error)
	// CommitTx applies the staged changes, returning how many applied.
	CommitTx(txID uint32) (uint32, error)
	// AbortTx discards the staged changes (unknown txID is a no-op).
	AbortTx(txID uint32) error
}

// BindConfig wires a ConfigServer onto t as config/0.1.
func BindConfig(t *xipc.Target, s ConfigServer) {
	b := newBinding(t, ConfigSpec)
	b.handle("validate_tx", func(in reader) (xrl.Args, error) {
		ok, reason, err := s.ValidateTx(in.u32("tx_id"), in.u32("generation"), in.texts("changes"))
		if err != nil {
			return nil, err
		}
		return xrl.Args{xrl.Bool("ok", ok), xrl.Text("reason", reason)}, nil
	})
	b.handle("commit_tx", func(in reader) (xrl.Args, error) {
		applied, err := s.CommitTx(in.u32("tx_id"))
		if err != nil {
			return nil, err
		}
		return xrl.Args{xrl.U32("applied", applied)}, nil
	})
	b.handle("abort_tx", func(in reader) (xrl.Args, error) {
		return nil, s.AbortTx(in.u32("tx_id"))
	})
	b.done()
}

// ConfigClient is the typed stub for config/0.1 (the coordinator side).
type ConfigClient struct{ client }

// NewConfigClient returns a stub driving target's transaction agent
// through r.
func NewConfigClient(r *xipc.Router, target string) *ConfigClient {
	return &ConfigClient{newClient(r, target, ConfigSpec)}
}

// ValidateTx opens txID at generation with the encoded change slice.
func (c *ConfigClient) ValidateTx(txID, generation uint32, changes []string, cb func(ok bool, reason string, err *xrl.Error)) {
	c.call("validate_tx", func(args xrl.Args, err *xrl.Error) {
		ret, err := ConfigSpec.reply("validate_tx", args, err)
		cb(ret.boolean("ok"), ret.text("reason"), err)
	},
		xrl.U32("tx_id", txID),
		xrl.U32("generation", generation),
		textAtoms("changes", changes),
	)
}

// CommitTx applies the staged transaction.
func (c *ConfigClient) CommitTx(txID uint32, cb func(applied uint32, err *xrl.Error)) {
	c.call("commit_tx", func(args xrl.Args, err *xrl.Error) {
		ret, err := ConfigSpec.reply("commit_tx", args, err)
		cb(ret.u32("applied"), err)
	}, xrl.U32("tx_id", txID))
}

// AbortTx discards the staged transaction.
func (c *ConfigClient) AbortTx(txID uint32, done func(error)) {
	c.call("abort_tx", Done(done), xrl.U32("tx_id", txID))
}
