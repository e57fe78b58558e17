// Package xipc implements XORP's inter-process communication layer
// (paper §6): XRL dispatch between components over pluggable protocol
// families — intra-process direct calls, pipelined TCP, and stop-and-wait
// UDP — brokered by the Finder (package finder).
//
// Each router process owns one Router bound to its event loop. Components
// register Targets (named XRL receiving points) carrying interfaces of
// methods. Sends are asynchronous: the reply callback is delivered on the
// sender's event loop, preserving the single-threaded programming model.
//
// # One XRL, one record
//
// An outgoing XRL is carried from its send to its callback by one call
// record (call.go) that the Router owns and reuses: the XRL, its
// arguments, the callback, the retry state, the wire Request and the
// reply timer live in it, and what it hands to a Loop or a Timer is a
// func bound when the record was made.
// The resolution cache is keyed by the XRL's own (target, interface,
// version, method) strings and holds the command string to put on the
// wire, so a send over a warm cache builds nothing. On the intra-process
// Hub the record itself crosses to the destination's loop and back; on
// TCP the connection's reader hands the loop whole bursts of frames
// (rx.go), which it decodes into one Request or Reply per connection. A
// steady stream of XRLs allocates nothing in this package.
//
// # Whose arguments
//
// Who owns an XRL's arguments, from the send to the callback, is part of
// the API and is set out once, at the top of call.go: SendArgs and Send
// copy them into the record, SendFromLoop borrows them, a Handler may
// read its args only until it returns, and a Callback keeps its reply.
package xipc

import (
	"fmt"
	"sort"
	"sync"

	"xorp/internal/xrl"
)

// Handler implements one XRL method. It runs on the owning Router's event
// loop. args are the handler's only until it returns (see call.go). It
// returns the reply arguments; a returned error is converted with
// xrl.AsError (so handlers may return *xrl.Error for a precise code).
type Handler func(args xrl.Args) (xrl.Args, error)

// Target is an XRL receiving point: a component instance (paper §6.2).
// The unit of IPC addressing is the component instance, not the process.
type Target struct {
	// Name is the unique component instance name, e.g. "bgp".
	Name string
	// Class is the component class, e.g. "bgp". Several instances may
	// share a class; resolution by class picks one.
	Class string

	mu      sync.RWMutex
	methods map[string]method // by command "iface/version/method"
}

// method is one registered method: its handler, and the key the Finder
// issued for it ("" until one is), which transport calls must present.
type method struct {
	h   Handler
	key string
}

// NewTarget returns a Target with the given instance name and class.
func NewTarget(name, class string) *Target {
	return &Target{Name: name, Class: class, methods: make(map[string]method)}
}

// Register adds a method handler for command "iface/version/method".
// Registering a duplicate command panics: it is a programming error.
func (t *Target) Register(iface, version, name string, h Handler) {
	cmd := iface + "/" + version + "/" + name
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.methods[cmd]; dup {
		panic(fmt.Sprintf("xipc: duplicate method %s on target %s", cmd, t.Name))
	}
	t.methods[cmd] = method{h: h}
}

// Commands returns all registered commands, sorted, so Finder
// registration order, logs and tests are deterministic.
func (t *Target) Commands() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]string, 0, len(t.methods))
	for c := range t.methods {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// method returns the method registered as cmd, its handler and its key,
// in one lookup.
func (t *Target) method(cmd string) (method, bool) {
	t.mu.RLock()
	m, ok := t.methods[cmd]
	t.mu.RUnlock()
	return m, ok
}

// methodOf is method for x's command, spelled out in a buffer on the
// stack: a map index by a converted byte slice makes no string, so a
// local call allocates nothing (unless its command is longer than the
// buffer).
func (t *Target) methodOf(x *xrl.XRL) (method, bool) {
	var buf [128]byte
	cmd := append(append(append(append(append(buf[:0], x.Interface...), '/'), x.Version...), '/'), x.Method...)
	t.mu.RLock()
	m, ok := t.methods[string(cmd)]
	t.mu.RUnlock()
	return m, ok
}

// SetMethodKey records the Finder-issued key for cmd, a registered
// command; once set, transport calls must present it (§7). Called by the
// finder registration client.
func (t *Target) SetMethodKey(cmd, key string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if m, ok := t.methods[cmd]; ok {
		m.key = key
		t.methods[cmd] = m
	}
}
