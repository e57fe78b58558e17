// Package finder implements the XORP Finder (paper §6.2): the broker that
// resolves generic XRLs into concrete transport endpoints, issues the
// 16-byte random method keys of the security framework (§7), enforces
// per-method access control, negotiates interface versions, and provides
// component lifetime notification.
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
	sole      bool
	endpoints []string          // "proto|addr"
	methods   map[string]string // command -> key
	// ifaces records the interface versions the component implements
	// (iface name -> version set), derived from its registered commands;
	// resolution negotiates against it (§6 rolling-upgrade scenario).
	ifaces   map[string]map[string]bool
	born     bool // its methods are registered and its birth announced
	lastSeen time.Time
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
func (s finderServer) Resolve(caller, target, command string, accept []string) (xif.FinderResolution, error) {
	return s.f.resolve(caller, target, command, accept)
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
		sole:      sole,
		endpoints: append([]string(nil), endpoints...),
		methods:   make(map[string]string),
		ifaces:    make(map[string]map[string]bool),
		lastSeen:  f.loop.Now(),
	}
	f.classes[class] = append(f.classes[class], instance)
	return nil
}

// registerMethods issues (or re-issues) one key per command, and records
// the implemented interface versions for resolution-time negotiation.
// The first call announces the instance's birth: a watcher may call it
// the moment it hears of it, so the birth waits until its methods
// resolve. Runs on the loop.
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
		if iface, version, _, ok := splitCommand(c); ok {
			vs := info.ifaces[iface]
			if vs == nil {
				vs = make(map[string]bool)
				info.ifaces[iface] = vs
			}
			vs[version] = true
		}
	}
	if !info.born {
		info.born = true
		f.notifyLifetime("birth", info.class, instance)
	}
	return keys, nil
}

// splitCommand splits "iface/version/method".
func splitCommand(cmd string) (iface, version, method string, ok bool) {
	iface, rest, ok1 := strings.Cut(cmd, "/")
	version, method, ok2 := strings.Cut(rest, "/")
	if !ok1 || !ok2 || iface == "" || version == "" || method == "" {
		return "", "", "", false
	}
	return iface, version, method, true
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

// resolve answers one resolution request. accept lists the interface
// versions the caller's stubs speak, preferred first; when the exact
// command is not implemented, the highest mutually supported version is
// chosen and the rewritten command returned. A target that implements
// the interface and method but under no acceptable version yields
// CodeBadVersion naming both sides — the rolling-upgrade failure mode
// the paper's versioned interfaces exist to catch. Runs on the loop.
func (f *Finder) resolve(caller, target, command string, accept []string) (xif.FinderResolution, error) {
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
	chosen := command
	if !strings.HasPrefix(command, "finder_client/1.0/") {
		chosen, key, ok = f.negotiate(info, command, accept)
		if !ok {
			iface, version, method, splitOK := splitCommand(command)
			if splitOK && len(info.ifaces[iface]) > 0 && methodKnown(info, iface, method) {
				return xif.FinderResolution{}, xrl.Errorf(xrl.CodeBadVersion,
					"%s implements %s/%s; caller speaks %s/%s",
					info.name, iface, strings.Join(sortedVersions(info.ifaces[iface]), ","),
					iface, strings.Join(appendMissing(accept, version), ","))
			}
			return xif.FinderResolution{}, xrl.Errorf(xrl.CodeResolveFailed,
				"%s has no method %q", info.name, command)
		}
	}
	// ACL is checked against both the generic name used and the concrete
	// instance, so rules can be written either way — and against the
	// NEGOTIATED command, which is what actually executes: a rule
	// permitting only rib/1.0 methods must not authorize a call the
	// negotiation rewrote to rib/2.0.
	if !f.allowed(caller, target, chosen) && !f.allowed(caller, info.name, chosen) &&
		!f.allowed(caller, info.class, chosen) {
		return xif.FinderResolution{}, xrl.Errorf(xrl.CodeResolveFailed,
			"%q is not permitted to call %s on %s", caller, chosen, info.name)
	}
	return xif.FinderResolution{
		Instance:  info.name,
		Key:       key,
		Command:   chosen,
		Endpoints: info.endpoints,
	}, nil
}

// negotiate picks the command to dispatch for a requested command plus
// the caller's accept list: the exact command if implemented, else the
// first (= most preferred) accepted version the target implements.
func (f *Finder) negotiate(info *instanceInfo, command string, accept []string) (chosen, key string, ok bool) {
	if key, ok = info.methods[command]; ok {
		return command, key, true
	}
	iface, version, method, splitOK := splitCommand(command)
	if !splitOK {
		return "", "", false
	}
	for _, v := range appendMissing(accept, version) {
		if !info.ifaces[iface][v] {
			continue
		}
		c := iface + "/" + v + "/" + method
		if k, exists := info.methods[c]; exists {
			return c, k, true
		}
	}
	return "", "", false
}

// methodKnown reports whether the target implements method under any
// version of iface (distinguishing version mismatch from no-such-method).
func methodKnown(info *instanceInfo, iface, method string) bool {
	for v := range info.ifaces[iface] {
		if _, ok := info.methods[iface+"/"+v+"/"+method]; ok {
			return true
		}
	}
	return false
}

func sortedVersions(vs map[string]bool) []string {
	out := make([]string, 0, len(vs))
	for v := range vs {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return xif.CompareVersions(out[i], out[j]) < 0 })
	return out
}

// appendMissing returns accept with version appended if absent.
func appendMissing(accept []string, version string) []string {
	for _, v := range accept {
		if v == version {
			return accept
		}
	}
	return append(append([]string(nil), accept...), version)
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
				info.lastSeen = f.loop.Now()
			}
		})
	}
}
