package xipc

import (
	"crypto/rand"
	"encoding/hex"
	"sync"
)

// Hub is the intra-process protocol family (§6.3): a registry connecting
// Routers that live in the same OS process, so XRLs between them are
// direct calls with no marshaling. In single-process deployments (tests,
// benchmarks, the quickstart example) every XORP "process" is a Router on
// its own event loop attached to one Hub.
type Hub struct {
	id string // unique per hub: the intra endpoint address

	mu      sync.Mutex
	routers map[*Router]struct{}
	targets map[string]*Router
}

// NewHub returns an empty Hub with a unique id.
func NewHub() *Hub {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("xipc: cannot read randomness: " + err.Error())
	}
	return &Hub{
		id:      hex.EncodeToString(b[:]),
		routers: make(map[*Router]struct{}),
		targets: make(map[string]*Router),
	}
}

func (h *Hub) addRouter(r *Router) {
	h.mu.Lock()
	h.routers[r] = struct{}{}
	h.mu.Unlock()
}

func (h *Hub) removeRouter(r *Router) {
	h.mu.Lock()
	delete(h.routers, r)
	h.mu.Unlock()
}

func (h *Hub) addTarget(name string, r *Router) {
	h.mu.Lock()
	h.targets[name] = r
	h.mu.Unlock()
}

func (h *Hub) removeTarget(name string) {
	h.mu.Lock()
	delete(h.targets, name)
	h.mu.Unlock()
}

// routerForTarget returns the router hosting the named target.
func (h *Hub) routerForTarget(name string) (*Router, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	r, ok := h.targets[name]
	return r, ok
}

// Intra-process requests are not delivered through a sender: the Router's
// intraSend hands the caller's xrl.Args directly to the destination
// target's handler (router.go), so the hub itself only keeps the
// target-name registry above.
