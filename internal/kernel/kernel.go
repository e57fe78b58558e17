// Package kernel simulates the forwarding plane underneath the FEA: a
// longest-prefix-match forwarding table (the "kernel FIB"), network
// interfaces, and a host-local datagram network used to carry routing
// protocol packets between simulated routers. The FIB's table is the
// copy-on-write version the FEA publishes as its forwarding snapshot
// (internal/fwd): one table, which the kernel view and the data plane
// both read.
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
// use (the kernel is shared below all processes). Its routes are one
// copy-on-write version: every write is a Commit, and a reader copies the
// version out under the lock and reads it outside. A write made straight
// to the FIB (Commit, ApplyBatch) reaches the data plane at the
// FEA publisher's next publish.
type FIB struct {
	mu     sync.Mutex
	tbl    trie.Persistent[route.Stored]
	ifaces map[string]*Interface
	// onInstall, if set, observes installs (profile point 8, "Entering
	// the kernel").
	onInstall func(e FIBEntry)
}

// NewFIB returns an empty forwarding table.
func NewFIB() *FIB {
	return &FIB{ifaces: make(map[string]*Interface)}
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

// ApplyBatch installs adds and deletes removes as one Commit.
func (f *FIB) ApplyBatch(adds []FIBEntry, removes []netip.Prefix) error {
	es := make([]route.Entry, len(adds))
	for i, e := range adds {
		es[i] = e.route()
	}
	_, _, err := f.Commit(es, removes)
	return err
}

// Commit is every write to the table: adds and then removes land in one
// edit session, in one critical section, so a coalesced batch costs one
// lock round-trip and one path copy per touched node. It returns the
// version that results, how many removes found an entry, and the first
// invalid add's error; an invalid add aborts nothing else. Install
// observers fire after the lock is released — never under it — once per
// valid add, so an observer may reenter the FIB (Lookup, Len, even
// Commit) without deadlocking, and a slow observer never extends the
// critical section. The slices are read only during the call.
func (f *FIB) Commit(adds []route.Entry, removes []netip.Prefix) (trie.Persistent[route.Stored], int, error) {
	var firstErr error
	removed := 0
	f.mu.Lock()
	edit := f.tbl.Edit()
	for i := range adds {
		if !adds[i].Net.IsValid() {
			if firstErr == nil {
				firstErr = fmt.Errorf("kernel: invalid prefix %v", adds[i].Net)
			}
			continue
		}
		edit.Insert(adds[i].Net, adds[i].Stored())
	}
	for _, net := range removes {
		if edit.Delete(net) {
			removed++
		}
	}
	f.tbl = edit.Publish()
	tbl, cb := f.tbl, f.onInstall
	f.mu.Unlock()
	if cb != nil {
		for i := range adds {
			if adds[i].Net.IsValid() {
				cb(fibEntry(adds[i]))
			}
		}
	}
	return tbl, removed, firstErr
}

// version returns the committed table; it never changes, so it is read
// outside the lock.
func (f *FIB) version() trie.Persistent[route.Stored] {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.tbl
}

// Lookup returns the longest-prefix-match entry for dst.
func (f *FIB) Lookup(dst netip.Addr) (FIBEntry, bool) {
	tbl := f.version()
	net, v, ok := tbl.LongestMatch(dst)
	return fibEntry(v.Entry(net)), ok
}

// Len returns the number of installed entries.
func (f *FIB) Len() int {
	tbl := f.version()
	return tbl.Len()
}

// Walk visits all entries of the committed table, outside the lock.
func (f *FIB) Walk(fn func(FIBEntry) bool) {
	tbl := f.version()
	tbl.Walk(func(net netip.Prefix, v route.Stored) bool { return fn(fibEntry(v.Entry(net))) })
}
