package rtrmgr

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"xorp/internal/xif"
	"xorp/internal/xipc"
	"xorp/internal/xrl"
)

// Transactional hot reload: the rtrmgr diffs the running configuration
// against a candidate (diff.go), compiles the changes into per-process
// slices, and drives them through the config/0.1 interface as a
// two-phase commit. Every affected process first validates its slice
// against live state (phase 1); only if all participants ack does the
// coordinator commit (phase 2). Any validation nack, commit failure, or
// participant death aborts the transaction — already-committed
// processes are rolled back with the inverse plan in reverse order — so
// the running config is swapped atomically or not at all. Unaffected
// state (peers, prefixes, filters not named in the diff) is never
// touched: the apply hooks are in-place, so a reload under full-table
// churn causes zero FIB operations for unaffected prefixes.

// participants returns the processes a router configured by cfg runs, in
// start and commit order: the FEA, the RIB, then each class of table cfg
// configures, so a protocol's changes land on an already-updated RIB/FEA.
func participants(table []*module, cfg *Node) []*module {
	out := []*module{feaModule, ribModule}
	for _, m := range table {
		if nodeAtPath(cfg, []string{"protocols", m.class}) != nil {
			out = append(out, m)
		}
	}
	return out
}

// lookup returns class's descriptor in table, nil for an unknown class.
func lookup(table []*module, class string) *module {
	for _, m := range table {
		if m.class == class {
			return m
		}
	}
	return nil
}

// TxHooks are fault-injection points for the transaction coordinator
// (tests and chaos runs): AfterValidate runs between the phases,
// BetweenCommits immediately before each participant's commit_tx.
type TxHooks struct {
	AfterValidate  func()
	BetweenCommits func(class string)
}

// Generation returns the running config's generation, bumped on every
// committed reload. validate_tx carries it so agents reject stale
// transactions built against an older tree.
func (r *Router) Generation() uint32 {
	r.txMu.Lock()
	defer r.txMu.Unlock()
	return r.generation
}

// poisonTx marks the open transaction failed because a participant
// process died (supervisor noteDeath / KillProcess call this). The
// coordinator checks between every step and aborts.
func (r *Router) poisonTx(class, reason string) {
	r.txMu.Lock()
	defer r.txMu.Unlock()
	if r.txOpen != 0 && r.txParts[class] {
		r.txPoison = fmt.Sprintf("participant %s %s", class, reason)
	}
}

func (r *Router) txPoisoned() string {
	r.txMu.Lock()
	defer r.txMu.Unlock()
	return r.txPoison
}

func (r *Router) openTx(parts []string) uint32 {
	r.txMu.Lock()
	defer r.txMu.Unlock()
	r.txSeq++
	r.txOpen = r.txSeq
	r.txParts = make(map[string]bool, len(parts))
	for _, p := range parts {
		r.txParts[p] = true
	}
	r.txPoison = ""
	return r.txSeq
}

func (r *Router) closeTx() {
	r.txMu.Lock()
	r.txOpen, r.txParts, r.txPoison = 0, nil, ""
	r.txMu.Unlock()
}

func (r *Router) nextTxID() uint32 {
	r.txMu.Lock()
	defer r.txMu.Unlock()
	r.txSeq++
	return r.txSeq
}

// configPlane lazily builds the coordinator's own XRL router. It hosts
// no target — it only sends config/0.1 calls to the per-process targets
// through the hub, resolving them via the Finder like any client.
func (r *Router) configPlane() *xipc.Router {
	r.txMu.Lock()
	defer r.txMu.Unlock()
	if r.configRouter == nil {
		r.configRouter = xipc.NewRouter("rtrmgr_config", r.loopFor())
		r.configRouter.AttachHub(r.Hub)
	}
	return r.configRouter
}

// Reload parses a candidate configuration and applies it transactionally
// (see the package comment above). On error the running config — and
// every process's live state — is unchanged.
func (r *Router) Reload(candidateText string) error {
	candidate, err := ParseConfig(candidateText)
	if err != nil {
		return fmt.Errorf("rtrmgr: reload parse: %w", err)
	}
	return r.ReloadTree(candidate)
}

// ReloadTree is Reload for an already-parsed candidate tree.
func (r *Router) ReloadTree(candidate *Node) error {
	running := r.runningConfig()
	changes := DiffConfig(running, candidate)
	if len(changes) == 0 {
		return nil
	}
	plan, err := compilePlan(r.modules, changes, running, candidate)
	if err != nil {
		return err
	}
	var parts []string
	for _, m := range participants(r.modules, candidate) {
		if len(plan[m.class]) > 0 {
			parts = append(parts, m.class)
		}
	}
	if len(parts) == 0 {
		// Config-only change (e.g. an unreferenced policy body): no
		// process state to touch, just swap the tree.
		r.swapConfig(candidate)
		return nil
	}

	txID := r.openTx(parts)
	defer r.closeTx()
	gen := r.Generation()

	// Phase 1: every participant validates its slice against live state.
	var validated []string
	for _, class := range parts {
		if reason := r.txPoisoned(); reason != "" {
			r.abortAll(txID, validated)
			return fmt.Errorf("rtrmgr: tx %d aborted during validate: %s", txID, reason)
		}
		ok, reason, err := r.sendValidate(class, txID, gen, plan[class])
		if err != nil {
			r.abortAll(txID, validated)
			return fmt.Errorf("rtrmgr: tx %d: validate %s: %w", txID, class, err)
		}
		if !ok {
			r.abortAll(txID, validated)
			return fmt.Errorf("rtrmgr: tx %d rejected by %s: %s", txID, class, reason)
		}
		validated = append(validated, class)
	}

	if h := r.hooks().AfterValidate; h != nil {
		h()
	}

	// Phase 2: commit in order; a failure rolls back what committed and
	// aborts what didn't.
	var committed []string
	for i, class := range parts {
		if h := r.hooks().BetweenCommits; h != nil {
			h(class)
		}
		if reason := r.txPoisoned(); reason != "" {
			rb := r.rollback(plan, committed)
			r.abortAll(txID, parts[i:])
			return txFailure(txID, fmt.Sprintf("aborted during commit: %s", reason), rb)
		}
		if _, err := r.sendCommit(class, txID); err != nil {
			rb := r.rollback(plan, committed)
			r.abortAll(txID, parts[i+1:])
			return txFailure(txID, fmt.Sprintf("commit %s: %v", class, err), rb)
		}
		committed = append(committed, class)
	}

	r.swapConfig(candidate)
	return nil
}

func (r *Router) hooks() TxHooks {
	r.txMu.Lock()
	defer r.txMu.Unlock()
	return r.txHooks
}

func (r *Router) swapConfig(candidate *Node) {
	r.txMu.Lock()
	r.Config = candidate
	r.generation++
	r.txMu.Unlock()
}

// txFailure folds rollback trouble into the transaction error so a
// partially-successful rollback is never silent.
func txFailure(txID uint32, msg string, rollbackErrs []string) error {
	if len(rollbackErrs) == 0 {
		return fmt.Errorf("rtrmgr: tx %d: %s (rolled back)", txID, msg)
	}
	return fmt.Errorf("rtrmgr: tx %d: %s (rollback incomplete: %s)",
		txID, msg, strings.Join(rollbackErrs, "; "))
}

// rollback undoes already-committed participants: each gets the inverse
// of its slice, in reverse order, as a fresh mini-transaction. Best
// effort — a participant that died mid-transaction cannot be rolled
// back, which is reported, not hidden.
func (r *Router) rollback(plan map[string][]Change, committed []string) []string {
	var errs []string
	for i := len(committed) - 1; i >= 0; i-- {
		class := committed[i]
		fwd := plan[class]
		inv := make([]Change, 0, len(fwd))
		for j := len(fwd) - 1; j >= 0; j-- {
			inv = append(inv, fwd[j].Inverse())
		}
		rbID := r.nextTxID()
		ok, reason, err := r.sendValidate(class, rbID, r.Generation(), inv)
		if err != nil {
			errs = append(errs, fmt.Sprintf("%s: %v", class, err))
			continue
		}
		if !ok {
			errs = append(errs, fmt.Sprintf("%s: %s", class, reason))
			continue
		}
		if _, err := r.sendCommit(class, rbID); err != nil {
			errs = append(errs, fmt.Sprintf("%s: %v", class, err))
		}
	}
	return errs
}

// abortAll sends abort_tx to the given participants (idempotent; errors
// ignored — an unreachable participant has no staged state to clear).
func (r *Router) abortAll(txID uint32, classes []string) {
	for _, class := range classes {
		_ = r.configCall(class, func(cl *xif.ConfigClient, finish func(*xrl.Error)) {
			cl.AbortTx(txID, func(error) { finish(nil) })
		})
	}
}

func (r *Router) sendValidate(class string, txID, gen uint32, cs []Change) (ok bool, reason string, err error) {
	err = r.configCall(class, func(cl *xif.ConfigClient, finish func(*xrl.Error)) {
		cl.ValidateTx(txID, gen, EncodeChanges(cs), func(o bool, rsn string, e *xrl.Error) {
			ok, reason = o, rsn
			finish(e)
		})
	})
	return ok, reason, err
}

func (r *Router) sendCommit(class string, txID uint32) (applied uint32, err error) {
	err = r.configCall(class, func(cl *xif.ConfigClient, finish func(*xrl.Error)) {
		cl.CommitTx(txID, func(n uint32, e *xrl.Error) {
			applied = n
			finish(e)
		})
	})
	return applied, err
}

// configCall runs one config/0.1 call to class to completion: send gets
// the stub and what its reply callback must end with.
func (r *Router) configCall(class string, send func(cl *xif.ConfigClient, finish func(*xrl.Error))) error {
	var callE error
	err := r.txCall(func(finish func()) {
		send(xif.NewConfigClient(r.configPlane(), class), func(e *xrl.Error) {
			if e != nil {
				callE = e
			}
			finish()
		})
	})
	if err != nil {
		return err
	}
	return callE
}

// txDeadline bounds each config XRL round-trip. A participant that neither
// acks nor nacks within it fails the transaction as if it had nacked.
const txDeadline = 5 * time.Second

// txCall runs one async config XRL to completion: in simulated mode it
// pumps every loop until the callback fires; in real mode it waits on a
// channel up to txDeadline.
func (r *Router) txCall(send func(finish func())) error {
	if r.simulated() {
		done := false
		send(func() { done = true })
		if !r.pump(&done) {
			return fmt.Errorf("config call wedged (simulated loops drained)")
		}
		return nil
	}
	ch := make(chan struct{}, 1)
	send(func() {
		select {
		case ch <- struct{}{}:
		default:
		}
	})
	select {
	case <-ch:
		return nil
	case <-time.After(txDeadline):
		return fmt.Errorf("config call timed out after %v", txDeadline)
	}
}

// --- Plan compilation: route each diff change to the processes that
// hold its state (a section to every participant whose row lists it: an
// interface is the FEA's, as a connected route the RIB's, and as a stub
// prefix OSPF's; a class's block to the class, but a redistribute
// statement to the RIB), lifting deep edits to the nearest
// independently-applicable unit and embedding policy bodies where
// filters must be recompiled.

func compilePlan(table []*module, changes []Change, running, candidate *Node) (map[string][]Change, error) {
	plan := make(map[string][]Change)
	seen := make(map[string]bool)
	add := func(class string, c Change) {
		key := class + "|" + string(c.Verb) + "|" + c.PathString()
		if seen[key] {
			return
		}
		seen[key] = true
		plan[class] = append(plan[class], c)
	}
	for _, c := range changes {
		if len(c.Path) == 0 {
			continue
		}
		head := c.Path[0]
		switch {
		case head == "interfaces" || head == "static":
			if len(c.Path) > 2 {
				c = liftChange(c, c.Path[:2], running, candidate)
			}
			for _, m := range participants(table, candidate) {
				if slices.Contains(m.sections, head) {
					add(m.class, c)
				}
			}
		case head == "protocols":
			if len(c.Path) < 2 {
				return nil, fmt.Errorf("rtrmgr: cannot reload the whole protocols block (restart required)")
			}
			class := c.Path[1]
			if lookup(table, class) == nil {
				return nil, fmt.Errorf("rtrmgr: unsupported protocol %q in change %s", class, c.PathString())
			}
			if len(c.Path) == 2 {
				return nil, fmt.Errorf("rtrmgr: adding or removing the %s process requires a restart", class)
			}
			if len(c.Path) > 3 {
				c = liftChange(c, c.Path[:3], running, candidate)
			}
			add(owner(c.Path[2], class), embedPolicy(embedGroup(c, running, candidate), running, candidate))
		case head == "policy" || strings.HasPrefix(head, "policy "):
			name := strings.TrimPrefix(head, "policy ")
			for _, cc := range policyRefChanges(table, name, running, candidate) {
				add(cc.class, cc.change)
			}
		default:
			return nil, fmt.Errorf("rtrmgr: unsupported config section %q (restart required)", head)
		}
	}
	return plan, nil
}

// bootPlan is the plan that configures a router from nothing: cfg diffed
// against its skeleton (each section the planner routes to a process, and
// each known class block under protocols, emptied) and compiled as a
// reload is. A policy is compiled where a statement names it; an unknown
// section or class fails the plan as an add; identity units are setup's.
func bootPlan(table []*module, cfg *Node) (map[string][]Change, error) {
	skel := &Node{Key: cfg.Key}
	for _, sec := range cfg.Children {
		if sec.Key == "interfaces" || sec.Key == "static" || sec.Key == "protocols" {
			empty := &Node{Key: sec.Key}
			for _, cl := range sec.Children {
				if sec.Key == "protocols" && lookup(table, cl.Key) != nil {
					empty.Children = append(empty.Children, &Node{Key: cl.Key})
				}
			}
			skel.Children = append(skel.Children, empty)
		}
	}
	plan, err := compilePlan(table, DiffConfig(skel, cfg), skel, cfg)
	if err != nil {
		return nil, err
	}
	for _, m := range table {
		plan[m.class] = slices.DeleteFunc(plan[m.class], func(c Change) bool {
			return c.Path[0] == "protocols" && slices.Contains(m.identity, c.Path[2])
		})
	}
	return plan, nil
}

// liftChange replaces a deep edit (e.g. a holdtime leaf inside a BGP
// peer) with a modify of the unit node above it: the unit is what the
// agent knows how to re-apply atomically.
func liftChange(c Change, unitPath []string, running, candidate *Node) Change {
	old := nodeAtPath(running, unitPath)
	new_ := nodeAtPath(candidate, unitPath)
	verb := ChangeModify
	if old == nil {
		verb = ChangeAdd
	}
	if new_ == nil {
		verb = ChangeRemove
	}
	return Change{Verb: verb, Path: append([]string{}, unitPath...), Old: old, New: new_}
}

// nodeAtPath walks root's children matching diff idents.
func nodeAtPath(root *Node, path []string) *Node {
	cur := root
	for _, el := range path {
		var next *Node
		for _, ch := range cur.Children {
			switch el {
			case blockIdent(ch), ch.Key, strings.Join(append([]string{ch.Key}, ch.Args...), " "):
				next = ch
			}
			if next != nil {
				break
			}
		}
		if next == nil {
			return nil
		}
		cur = next
	}
	return cur
}

func blockIdent(n *Node) string {
	if len(n.Children) > 0 && n.Arg(0) != "" {
		return n.Key + " " + n.Arg(0)
	}
	return n.Key
}

// embedPolicy copies the referenced policy body into redistribute/export
// changes: the agent must compile the filter against the *candidate*
// policy (and the inverse against the running one), and the wire change
// is the only context it gets.
func embedPolicy(c Change, running, candidate *Node) Change {
	c.Old = withEmbeddedPolicy(c.Old, running)
	c.New = withEmbeddedPolicy(c.New, candidate)
	return c
}

// embedGroup copies a referenced group block into the change, like
// embedPolicy does for policies: a unit with a `group <name>` leaf (a BGP
// peer) inherits defaults from the `<unit>-group <name>` block of its
// class, which the agent must resolve against the candidate config (and
// the inverse against the running one).
func embedGroup(c Change, running, candidate *Node) Change {
	c.Old = withEmbeddedGroup(c.Old, nodeAtPath(running, c.Path[:2]))
	c.New = withEmbeddedGroup(c.New, nodeAtPath(candidate, c.Path[:2]))
	return c
}

func withEmbeddedGroup(n, classCfg *Node) *Node {
	if n == nil || classCfg == nil {
		return n
	}
	return withChild(n, findBlock(classCfg, n.Key+"-group", n.Leaf("group")))
}

func withEmbeddedPolicy(n, cfg *Node) *Node {
	if n == nil || cfg == nil {
		return n
	}
	return withChild(n, findBlock(cfg, "policy", policyArg(n)))
}

// withChild returns a copy of n with extra as one more child, n itself
// when there is nothing to add.
func withChild(n, extra *Node) *Node {
	if extra == nil {
		return n
	}
	return &Node{Key: n.Key, Args: slices.Clone(n.Args), Children: append(slices.Clone(n.Children), extra)}
}

// findBlock returns the `<key> <name>` block among n's children, nil when
// there is none (or name is empty).
func findBlock(n *Node, key, name string) *Node {
	for _, c := range n.ChildrenNamed(key) {
		if name != "" && c.Arg(0) == name {
			return c
		}
	}
	return nil
}

// policyArg returns the policy a statement names ("" for none):
// `redistribute <proto> [policy]` and `export <policy>`.
func policyArg(n *Node) string {
	switch n.Key {
	case "redistribute":
		return n.Arg(1)
	case "export":
		return n.Arg(0)
	}
	return ""
}

// owner names the participant that holds the state of unit, a statement
// in class's block: a redistribution stage is the RIB's, the rest is the
// class's own.
func owner(unit, class string) string {
	if strings.HasPrefix(unit, "redistribute") {
		return "rib"
	}
	return class
}

type classChange struct {
	class  string
	change Change
}

// policyRefChanges fans a policy-body edit out to every statement that
// references the policy: each referencing redistribute/export becomes a
// synthetic modify carrying the old and new policy bodies, so the
// owning process recompiles and swaps its filter in place.
func policyRefChanges(table []*module, name string, running, candidate *Node) []classChange {
	var out []classChange
	for _, m := range table {
		cn := nodeAtPath(candidate, []string{"protocols", m.class})
		if cn == nil {
			continue
		}
		for _, st := range cn.Children {
			if policyArg(st) != name {
				continue
			}
			path := []string{"protocols", m.class, ident(st, leafSetKey(st))}
			if nodeAtPath(running, path) == nil {
				continue // newly added: the add change handles it
			}
			out = append(out, classChange{owner(path[2], m.class), embedPolicy(Change{
				Verb: ChangeModify, Path: path, Old: st, New: st,
			}, running, candidate)})
		}
	}
	return out
}
