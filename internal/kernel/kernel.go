// Package kernel simulates the forwarding plane underneath the FEA: a
// longest-prefix-match forwarding table (the "kernel FIB"), network
// interfaces, and a host-local datagram network used to carry routing
// protocol packets between simulated routers. The FIB's table, written
// in place, is the one the FEA publishes as its forwarding snapshot
// (internal/fwd): the kernel view and the data plane both read it.
//
// Substitution note (DESIGN.md §5): the paper's testbed installed routes
// into the FreeBSD kernel (or Click). The evaluation measures when a
// route *enters the kernel*, not forwarding throughput, so an in-memory
// FIB preserves the measured code path exactly while keeping the
// reproduction self-contained.
package kernel

import (
	"fmt"
	"net/netip"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"xorp/internal/route"
	"xorp/internal/trie"
)

// FIBEntry is one installed forwarding entry.
type FIBEntry struct {
	Net     netip.Prefix
	NextHop netip.Addr
	IfName  string
}

func (e FIBEntry) route() route.Entry {
	return route.Entry{Net: e.Net, NextHop: e.NextHop, IfName: e.IfName}
}

func fibEntry(e route.Entry) FIBEntry {
	return FIBEntry{Net: e.Net, NextHop: e.NextHop, IfName: e.IfName}
}

// Interface is a simulated network interface.
type Interface struct {
	Name string
	Addr netip.Prefix // interface address with on-link prefix
	MTU  int
	Up   bool
}

// FIB is the simulated kernel forwarding table. It is safe for concurrent
// use (the kernel is shared below all processes). Every write is a
// Commit, in place, and Lookup, Len and Walk read under the lock.
type FIB struct {
	mu      sync.Mutex
	tbl     *trie.Table[route.Stored]
	commits atomic.Uint64 // Commits made, each counted under mu: a Pin reports how many its version holds
	ifaces  map[string]*Interface
	// onInstall, if set, observes installs (profile point 8, "Entering
	// the kernel").
	onInstall func(e FIBEntry)
}

// NewFIB returns an empty forwarding table.
func NewFIB() *FIB {
	return &FIB{tbl: trie.New[route.Stored](), ifaces: make(map[string]*Interface)}
}

// SetInstallObserver registers a callback invoked on every install.
func (f *FIB) SetInstallObserver(fn func(e FIBEntry)) {
	f.mu.Lock()
	f.onInstall = fn
	f.mu.Unlock()
}

// AddInterface configures a simulated interface.
func (f *FIB) AddInterface(name string, addr netip.Prefix, mtu int) {
	f.mu.Lock()
	f.ifaces[name] = &Interface{Name: name, Addr: addr, MTU: mtu, Up: true}
	f.mu.Unlock()
}

// Interfaces lists the configured interfaces, sorted by name.
func (f *FIB) Interfaces() []Interface {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]Interface, 0, len(f.ifaces))
	for _, i := range f.ifaces {
		out = append(out, *i)
	}
	slices.SortFunc(out, func(a, b Interface) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// Writes is a batch of table writes in arrival order: the i-th (At)
// installs e, or, with del, removes e.Net. A rib.FIBBatch is one.
type Writes interface {
	Len() int
	At(i int) (e route.Entry, del bool)
}

// ApplyBatch installs adds and then deletes removes, as one Commit.
func (f *FIB) ApplyBatch(adds []FIBEntry, removes []netip.Prefix) error {
	_, _, err := f.Commit(&lists{adds, removes})
	return err
}

// lists is ApplyBatch's Writes: its adds, then its removes.
type lists struct {
	adds    []FIBEntry
	removes []netip.Prefix
}

func (l *lists) Len() int { return len(l.adds) + len(l.removes) }

func (l *lists) At(i int) (route.Entry, bool) {
	if i < len(l.adds) {
		return l.adds[i].route(), false
	}
	return route.Entry{Net: l.removes[i-len(l.adds)]}, true
}

// Commit is every write to the table: w's writes land in place, in
// arrival order, in one critical section, so a batch costs one lock
// round-trip and, after a Pin, one copy of each node it touches that the
// pin can reach; a prefix a batch deletes and then adds again ends
// installed. It returns the table's live contents, valid until the next
// Commit, how many removes found an entry, and the first invalid add's
// error; an invalid add aborts nothing else. Install observers fire after
// the lock is released — never under it — once per valid add, so an
// observer may reenter the FIB (Lookup, Len, even Commit) without
// deadlocking, and a slow observer never extends the critical section. w
// is read only during the call.
func (f *FIB) Commit(w Writes) (trie.Persistent[route.Stored], int, error) {
	var firstErr error
	removed, n := 0, w.Len()
	f.mu.Lock()
	f.commits.Add(1)
	for i := range n {
		switch e, del := w.At(i); {
		case del:
			if _, ok := f.tbl.Delete(e.Net); ok {
				removed++
			}
		case !e.Net.IsValid():
			if firstErr == nil {
				firstErr = fmt.Errorf("kernel: invalid prefix %v", e.Net)
			}
		default:
			f.tbl.Upsert(e.Net, e.Stored())
		}
	}
	tbl, cb := f.tbl.Live(), f.onInstall
	f.mu.Unlock()
	if cb != nil {
		for i := range n {
			if e, del := w.At(i); !del && e.Net.IsValid() {
				cb(fibEntry(e))
			}
		}
	}
	return tbl, removed, firstErr
}

// Pin returns the table as it stands as a version no later Commit
// changes, and how many commits that version holds.
func (f *FIB) Pin() (trie.Persistent[route.Stored], uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.tbl.Pin(), f.commits.Load()
}

// Commits returns how many commits the FIB has made.
func (f *FIB) Commits() uint64 { return f.commits.Load() }

// Lookup returns the longest-prefix-match entry for dst. It reads under
// the lock and pins nothing, so it costs the next Commit no copy.
func (f *FIB) Lookup(dst netip.Addr) (FIBEntry, bool) {
	f.mu.Lock()
	net, v, ok := f.tbl.LongestMatch(dst)
	f.mu.Unlock()
	return fibEntry(v.Entry(net)), ok
}

// Len returns the number of installed entries.
func (f *FIB) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.tbl.Len()
}

// Walk visits every entry in prefix order. It copies them out under the
// lock and calls fn outside it, so fn may call the FIB.
func (f *FIB) Walk(fn func(FIBEntry) bool) {
	f.mu.Lock()
	es := make([]FIBEntry, 0, f.tbl.Len())
	f.tbl.Walk(func(net netip.Prefix, v route.Stored) bool { es = append(es, fibEntry(v.Entry(net))); return true })
	f.mu.Unlock()
	for _, e := range es {
		if !fn(e) {
			return
		}
	}
}
