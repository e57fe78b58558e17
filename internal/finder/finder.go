// Package finder implements the XORP Finder (paper §6.2): the broker that
// resolves generic XRLs into concrete transport endpoints, issues the
// 16-byte random method keys of the security framework (§7), enforces
// per-method access control, and provides component lifetime
// notification. A command resolves exactly as named, its interface
// version included: the Finder maps it to the instance that registered
// it, and to nothing else.
package finder

import (
	"crypto/rand"
	"encoding/hex"
	"sort"
	"strings"
	"time"

	"xorp/internal/eventloop"
	"xorp/internal/xif"
	"xorp/internal/xipc"
	"xorp/internal/xrl"
)

// instanceInfo is the Finder's record of one registered component.
type instanceInfo struct {
	name      string
	class     string
	endpoints []string          // "proto|addr"
	methods   map[string]string // command -> key
	born      bool              // its methods are registered and its birth announced
	// Liveness bookkeeping (pingAll): missed counts consecutive ping
	// rounds that began with no reply yet processed; a reply (whenever it
	// lands) resets it. pinging marks a probe still in flight, so a slow
	// round never stacks a second probe — and crucially a reply in flight
	// across a round boundary costs one counted miss, not an expiry-time
	// double-count.
	missed  int
	pinging bool
}

// aclRule allows caller to invoke command on target. "*" wildcards any
// field; target matches instance or class.
type aclRule struct {
	caller, target, command string
}

// Finder is the broker service. All state is confined to its event loop.
// It implements xif.FinderServer; BindFinder wires it to the wire.
type Finder struct {
	loop   *eventloop.Loop
	router *xipc.Router
	events *xif.FinderEventClient

	instances map[string]*instanceInfo
	classes   map[string][]string        // class -> instance names
	watchers  map[string]map[string]bool // class ("*" = all) -> watcher targets
	rules     []aclRule
	strict    bool // true: resolution requires a matching rule

	pingTimer *eventloop.Timer
}

// New creates a Finder on its own router named "finder_process", hosting
// the well-known "finder" target, and attaches it to loop.
func New(loop *eventloop.Loop) *Finder {
	f := &Finder{
		loop:      loop,
		router:    xipc.NewRouter("finder_process", loop),
		instances: make(map[string]*instanceInfo),
		classes:   make(map[string][]string),
		watchers:  make(map[string]map[string]bool),
	}
	f.events = xif.NewFinderEventClient(f.router)
	t := xif.NewTarget(xipc.FinderTargetName, "finder")
	xif.BindFinder(t, finderServer{f})
	f.router.AddTarget(t)
	return f
}

// finderServer adapts the Finder as a xif.FinderServer; all methods run
// on the Finder's event loop (XRL handlers always do).
type finderServer struct{ f *Finder }

func (s finderServer) RegisterTarget(instance, class string, sole bool, endpoints []string) error {
	return s.f.registerTarget(instance, class, sole, endpoints)
}
func (s finderServer) RegisterMethods(instance string, commands []string) ([]string, error) {
	return s.f.registerMethods(instance, commands)
}
func (s finderServer) UnregisterTarget(instance string) error {
	s.f.removeInstance(instance)
	return nil
}
func (s finderServer) Resolve(caller, target, command string) (xif.FinderResolution, error) {
	return s.f.resolve(caller, target, command)
}
func (s finderServer) Watch(watcher, class string) error {
	m := s.f.watchers[class]
	if m == nil {
		m = make(map[string]bool)
		s.f.watchers[class] = m
	}
	m[watcher] = true
	return nil
}
func (s finderServer) Targets() ([]string, error) {
	items := make([]string, 0, len(s.f.instances))
	for _, info := range s.f.instances {
		items = append(items, info.name+":"+info.class)
	}
	sort.Strings(items)
	return items, nil
}
func (s finderServer) AddPermission(caller, target, command string) error {
	s.f.rules = append(s.f.rules, aclRule{caller, target, command})
	return nil
}
func (s finderServer) SetStrict(strict bool) error {
	s.f.strict = strict
	return nil
}

// Router returns the Finder's XRL router (to attach hubs or listeners).
func (f *Finder) Router() *xipc.Router { return f.router }

// AttachHub joins the Finder to an in-process hub.
func (f *Finder) AttachHub(h *xipc.Hub) { f.router.AttachHub(h) }

// ListenTCP makes the Finder reachable over TCP.
func (f *Finder) ListenTCP(addr string) error { return f.router.ListenTCP(addr) }

// TCPAddr returns the Finder's TCP endpoint ("" if not listening).
func (f *Finder) TCPAddr() string {
	for _, ep := range f.router.Endpoints() {
		if len(ep) > 5 && ep[:5] == xrl.ProtoSTCP+"|" {
			return ep[5:]
		}
	}
	return ""
}

// SetStrict switches the resolver to deny-by-default: only XRLs matched by
// an AddPermission rule resolve (§7's "set of XRLs that each process is
// allowed to call").
func (f *Finder) SetStrict(strict bool) {
	f.loop.DispatchAndWait(func() { f.strict = strict })
}

// AddPermission allows caller to call command on target. "*" wildcards.
func (f *Finder) AddPermission(caller, target, command string) {
	f.loop.DispatchAndWait(func() {
		f.rules = append(f.rules, aclRule{caller, target, command})
	})
}

// EnableLiveness makes the Finder ping registered components every period
// and expire (with death notifications) those that miss two pings.
func (f *Finder) EnableLiveness(period time.Duration) {
	f.loop.Dispatch(func() {
		if f.pingTimer != nil {
			f.pingTimer.Cancel()
		}
		f.pingTimer = f.loop.Periodic(period, f.pingAll)
	})
}

func newKey() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("finder: cannot read randomness: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

// registerTarget records a component registration. Runs on the loop.
func (f *Finder) registerTarget(instance, class string, sole bool, endpoints []string) error {
	if _, dup := f.instances[instance]; dup {
		return xrl.Errorf(xrl.CodeCommandFailed, "instance %q already registered", instance)
	}
	if sole {
		if n := len(f.classes[class]); n > 0 {
			return xrl.Errorf(xrl.CodeCommandFailed,
				"class %q already has %d instance(s), sole registration refused", class, n)
		}
	}
	f.instances[instance] = &instanceInfo{
		name:      instance,
		class:     class,
		endpoints: append([]string(nil), endpoints...),
		methods:   make(map[string]string),
	}
	f.classes[class] = append(f.classes[class], instance)
	return nil
}

// registerMethods issues (or re-issues) one key per command. The first
// call announces the instance's birth: a watcher may call it the moment
// it hears of it, so the birth waits until its methods resolve. Runs on
// the loop.
func (f *Finder) registerMethods(instance string, commands []string) ([]string, error) {
	info, ok := f.instances[instance]
	if !ok {
		return nil, xrl.Errorf(xrl.CodeCommandFailed, "unknown instance %q", instance)
	}
	keys := make([]string, 0, len(commands))
	for _, c := range commands {
		key, exists := info.methods[c]
		if !exists {
			key = newKey()
			info.methods[c] = key
		}
		keys = append(keys, key)
	}
	if !info.born {
		info.born = true
		f.notifyLifetime("birth", info.class, instance)
	}
	return keys, nil
}

func (f *Finder) removeInstance(instance string) {
	info, ok := f.instances[instance]
	if !ok {
		return
	}
	delete(f.instances, instance)
	list := f.classes[info.class]
	for i, n := range list {
		if n == instance {
			f.classes[info.class] = append(list[:i], list[i+1:]...)
			break
		}
	}
	if len(f.classes[info.class]) == 0 {
		delete(f.classes, info.class)
	}
	f.broadcastInvalidate(instance)
	f.notifyLifetime("death", info.class, instance)
}

func (f *Finder) allowed(caller, target, command string) bool {
	if !f.strict {
		return true
	}
	for _, r := range f.rules {
		if (r.caller == "*" || r.caller == caller) &&
			(r.target == "*" || r.target == target) &&
			(r.command == "*" || r.command == command) {
			return true
		}
	}
	return false
}

// resolve answers one resolution request: the instance that registered
// command, its key for it and its endpoints. The command is looked up
// exactly as named, its interface version included, and the ACL is
// checked against it. Runs on the loop.
func (f *Finder) resolve(caller, target, command string) (xif.FinderResolution, error) {
	// Resolve by instance name first, then by class.
	info, ok := f.instances[target]
	if !ok {
		if list := f.classes[target]; len(list) > 0 {
			info = f.instances[list[0]]
			ok = info != nil
		}
	}
	if !ok {
		return xif.FinderResolution{}, xrl.Errorf(xrl.CodeResolveFailed, "no target %q", target)
	}
	// The finder_client interface is implemented by every router
	// internally (cache invalidation, lifetime events, ping) and is never
	// explicitly registered; it resolves with an empty key.
	key := ""
	if !strings.HasPrefix(command, "finder_client/1.0/") {
		if key, ok = info.methods[command]; !ok {
			return xif.FinderResolution{}, xrl.Errorf(xrl.CodeResolveFailed,
				"%s has no method %q", info.name, command)
		}
	}
	// ACL is checked against both the generic name used and the concrete
	// instance, so rules can be written either way.
	if !f.allowed(caller, target, command) && !f.allowed(caller, info.name, command) &&
		!f.allowed(caller, info.class, command) {
		return xif.FinderResolution{}, xrl.Errorf(xrl.CodeResolveFailed,
			"%q is not permitted to call %s on %s", caller, command, info.name)
	}
	return xif.FinderResolution{Instance: info.name, Key: key, Endpoints: info.endpoints}, nil
}

// notifyLifetime pushes a birth/death event to watchers of the class and
// of "*".
func (f *Finder) notifyLifetime(event, class, instance string) {
	seen := map[string]bool{}
	for _, classKey := range []string{class, "*"} {
		for watcher := range f.watchers[classKey] {
			if seen[watcher] || watcher == instance {
				continue
			}
			seen[watcher] = true
			if event == "birth" {
				f.events.Birth(watcher, class, instance, nil)
			} else {
				f.events.Death(watcher, class, instance, nil)
			}
		}
	}
}

// broadcastInvalidate tells every registered component to drop cached
// resolutions of instance ("the Finder updates caches when entries become
// invalidated", §6.1).
func (f *Finder) broadcastInvalidate(instance string) {
	for name := range f.instances {
		f.events.Invalidate(name, instance, nil)
	}
}

// pingAll checks component liveness and expires the silent. Misses are
// counted per round, not inferred from reply timestamps: the old
// elapsed-time check double-counted a reply still in flight when the
// next round fired and could expire a live component one round early
// (or instantly, when liveness was enabled long after registration).
// A component is expired only once two full rounds have begun with no
// reply processed since.
func (f *Finder) pingAll() {
	for name, info := range f.instances {
		if info.missed >= 2 {
			f.removeInstance(name)
			continue
		}
		info.missed++
		if info.pinging {
			// Previous probe still in flight; its reply (if the component
			// lives) clears the miss count. Don't stack another probe.
			continue
		}
		info.pinging = true
		info := info
		f.events.Ping(name, func(_ xrl.Args, err *xrl.Error) {
			info.pinging = false
			if err == nil {
				info.missed = 0
			}
		})
	}
}
