// Package kernel simulates the forwarding plane underneath the FEA: a
// longest-prefix-match forwarding table (the "kernel FIB"), network
// interfaces, and a host-local datagram network used to carry routing
// protocol packets between simulated routers.
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
	"sync"
	"unique"

	"xorp/internal/trie"
)

// FIBEntry is one installed forwarding entry.
type FIBEntry struct {
	Net     netip.Prefix
	NextHop netip.Addr
	IfName  string
}

// fibValue is what the table keeps under FIBEntry.Net: the entry less its
// key, the interface name interned (zero handle for "": its Value panics).
type fibValue struct {
	nextHop netip.Addr
	ifName  unique.Handle[string]
}

func (e FIBEntry) value() fibValue {
	v := fibValue{nextHop: e.NextHop}
	if e.IfName != "" {
		v.ifName = unique.Make(e.IfName)
	}
	return v
}

func (v fibValue) entry(net netip.Prefix) FIBEntry {
	e := FIBEntry{Net: net, NextHop: v.nextHop}
	if v.ifName != (unique.Handle[string]{}) {
		e.IfName = v.ifName.Value()
	}
	return e
}

// Interface is a simulated network interface.
type Interface struct {
	Name string
	Addr netip.Prefix // interface address with on-link prefix
	MTU  int
	Up   bool
}

// FIB is the simulated kernel forwarding table. It is safe for concurrent
// use (the kernel is shared below all processes).
type FIB struct {
	mu       sync.Mutex
	tbl      *trie.Trie[fibValue]
	ifaces   map[string]*Interface
	installs uint64
	removals uint64
	// onInstall, if set, observes installs (profile point 8, "Entering
	// the kernel").
	onInstall func(e FIBEntry)
}

// NewFIB returns an empty forwarding table.
func NewFIB() *FIB {
	return &FIB{
		tbl:    trie.New[fibValue](),
		ifaces: make(map[string]*Interface),
	}
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

// Interfaces lists the configured interfaces.
func (f *FIB) Interfaces() []Interface {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]Interface, 0, len(f.ifaces))
	for _, i := range f.ifaces {
		out = append(out, *i)
	}
	return out
}

// Install adds or replaces a forwarding entry.
func (f *FIB) Install(e FIBEntry) error {
	if !e.Net.IsValid() {
		return fmt.Errorf("kernel: invalid prefix %v", e.Net)
	}
	f.mu.Lock()
	f.tbl.Insert(e.Net, e.value())
	f.installs++
	cb := f.onInstall
	f.mu.Unlock()
	if cb != nil {
		cb(e)
	}
	return nil
}

// ApplyBatch installs adds and deletes removes in one critical section,
// so a coalesced FIB batch costs one lock round-trip instead of one per
// entry. Install observers fire after the lock is released — never
// under it — so an observer may reenter the FIB (Lookup, Len, even
// Install) without deadlocking, and a slow observer never extends the
// forwarding table's critical section. The first invalid entry aborts
// nothing else; its error is returned.
func (f *FIB) ApplyBatch(adds []FIBEntry, removes []netip.Prefix) error {
	var firstErr error
	f.mu.Lock()
	for _, e := range adds {
		if !e.Net.IsValid() {
			if firstErr == nil {
				firstErr = fmt.Errorf("kernel: invalid prefix %v", e.Net)
			}
			continue
		}
		f.tbl.Insert(e.Net, e.value())
		f.installs++
	}
	for _, net := range removes {
		if _, ok := f.tbl.Delete(net); ok {
			f.removals++
		}
	}
	cb := f.onInstall
	f.mu.Unlock()
	if cb != nil {
		for _, e := range adds {
			if e.Net.IsValid() {
				cb(e)
			}
		}
	}
	return firstErr
}

// Remove deletes a forwarding entry.
func (f *FIB) Remove(net netip.Prefix) bool {
	f.mu.Lock()
	_, ok := f.tbl.Delete(net)
	if ok {
		f.removals++
	}
	f.mu.Unlock()
	return ok
}

// Lookup returns the longest-prefix-match entry for dst.
func (f *FIB) Lookup(dst netip.Addr) (FIBEntry, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	net, v, ok := f.tbl.LongestMatch(dst)
	return v.entry(net), ok
}

// Len returns the number of installed entries.
func (f *FIB) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.tbl.Len()
}

// Stats returns cumulative install/removal counters.
func (f *FIB) Stats() (installs, removals uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.installs, f.removals
}

// Walk visits all entries.
func (f *FIB) Walk(fn func(FIBEntry) bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.tbl.Walk(func(net netip.Prefix, v fibValue) bool { return fn(v.entry(net)) })
}
