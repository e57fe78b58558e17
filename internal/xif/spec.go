package xif

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"xorp/internal/xrl"
)

// Arg is one declared argument (or return atom) of an interface method.
type Arg struct {
	Name string
	Type xrl.AtomType
	// Optional arguments may be absent from a call; XORP's generated
	// stubs model these as separate method overloads, we fold them into
	// one declaration.
	Optional bool
	// Sample is a textual sample value used by the spec-conformance
	// tests when the type's zero-ish default would be semantically
	// rejected by the handler (e.g. a protocol name). Empty means "use
	// the type default".
	Sample string
}

// Method is one declared method of an interface: its named, typed
// arguments and return atoms.
type Method struct {
	Name string
	Args []Arg
	Rets []Arg
	// AnyArgs marks a method taking an arbitrary argument list (the
	// bench sink); its calls are not arg-checked.
	AnyArgs bool
	// Idempotent marks a method safe to retry after a transport-level
	// failure (resolve or send): re-delivering the call cannot corrupt
	// state. Client stubs send idempotent calls through the router's
	// bounded-retry path, so callers of a restarting target recover
	// instead of erroring (graceful-restart window).
	Idempotent bool
}

// Spec is the declarative definition of one XRL interface: the Go
// equivalent of a XORP .xif file. Client stubs and handler bindings are
// both checked against it.
type Spec struct {
	// Name and Version identify the interface, e.g. "rib"/"1.0".
	Name    string
	Version string
	// Compatible lists every version the stubs in this build can speak,
	// preferred (highest) first; it is advertised to the Finder so
	// resolution can pick the highest mutually supported version. It
	// always includes Version.
	Compatible []string
	Methods    []Method

	byName map[string]*Method
}

var (
	registryMu sync.RWMutex
	registry   = make(map[string]*Spec) // "name/version" -> spec
)

// Define registers a Spec in the package registry and returns it.
// Duplicate definitions panic: specs are package-level declarations.
func Define(s Spec) *Spec {
	if len(s.Compatible) == 0 {
		s.Compatible = []string{s.Version}
	}
	sp := &s
	sp.byName = make(map[string]*Method, len(sp.Methods))
	for i := range sp.Methods {
		m := &sp.Methods[i]
		if _, dup := sp.byName[m.Name]; dup {
			panic(fmt.Sprintf("xif: duplicate method %s in spec %s/%s", m.Name, s.Name, s.Version))
		}
		sp.byName[m.Name] = m
	}
	key := s.Name + "/" + s.Version
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[key]; dup {
		panic("xif: duplicate spec " + key)
	}
	registry[key] = sp
	return sp
}

// Lookup returns the spec for interface name/version.
func Lookup(name, version string) (*Spec, bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	s, ok := registry[name+"/"+version]
	return s, ok
}

// All returns every registered spec, sorted by name then version.
func All() []*Spec {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]*Spec, 0, len(registry))
	for _, s := range registry {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Version < out[j].Version
	})
	return out
}

// Method returns the declaration of the named method.
func (s *Spec) Method(name string) (*Method, bool) {
	m, ok := s.byName[name]
	return m, ok
}

// Command returns "name/version/method" for a method of this interface.
func (s *Spec) Command(method string) string {
	return s.Name + "/" + s.Version + "/" + method
}

// NewXRL builds an unresolved XRL for a call to method on target,
// checking the call against the spec. A violation panics: stub code is
// written against the spec, so a mismatch is a programming error caught
// the first time the path runs (use Check for data-driven callers like
// call_xrl).
func (s *Spec) NewXRL(target, method string, args ...xrl.Atom) xrl.XRL {
	if err := s.Check(method, args); err != nil {
		panic("xif: " + err.Error())
	}
	return xrl.XRL{
		Protocol:  xrl.ProtoFinder,
		Target:    target,
		Interface: s.Name,
		Version:   s.Version,
		Method:    method,
		Args:      args,
	}
}

// Check validates a call to method with args against the spec: the
// method must exist, every non-optional declared argument must be
// present with the declared type, and no undeclared argument may appear.
func (s *Spec) Check(method string, args xrl.Args) error {
	m, ok := s.byName[method]
	if !ok {
		return fmt.Errorf("interface %s/%s has no method %q", s.Name, s.Version, method)
	}
	return m.CheckArgs(args)
}

// CheckArgs validates an argument list against the method declaration.
// The binding runs it on every call before the handler does, as the stubs
// run it before they send.
func (m *Method) CheckArgs(args xrl.Args) error {
	if m.AnyArgs {
		return nil
	}
	if err := checkAtoms(m.Args, args); err != nil {
		return fmt.Errorf("method %s: %v", m.Name, err)
	}
	return nil
}

// checkAtoms validates atoms against their declaration: every
// non-optional declared atom is present with a type its declaration
// accepts, and there is no undeclared one.
func checkAtoms(decl []Arg, atoms xrl.Args) error {
	for i := range decl {
		d := &decl[i]
		a, ok := atoms.Get(d.Name)
		if !ok {
			if d.Optional {
				continue
			}
			return fmt.Errorf("missing argument %s:%v", d.Name, d.Type)
		}
		if !d.Type.Accepts(a.Type) {
			return fmt.Errorf("argument %s has type %v, want %v", d.Name, a.Type, d.Type)
		}
	}
	for i := range atoms {
		if !declares(decl, atoms[i].Name) {
			return fmt.Errorf("unknown argument %q", atoms[i].Name)
		}
	}
	return nil
}

func declares(decl []Arg, name string) bool {
	for i := range decl {
		if decl[i].Name == name {
			return true
		}
	}
	return false
}

// Usage renders the method's call shape in XRL textual form, e.g.
//
//	add_routes4?protocol:txt&routes:list[&policytags:list]
func (m *Method) Usage() string {
	var sb strings.Builder
	sb.WriteString(m.Name)
	if m.AnyArgs {
		sb.WriteString("?...")
	} else {
		for i := range m.Args {
			a := &m.Args[i]
			sep := "&"
			if i == 0 {
				sep = "?"
			}
			if a.Optional {
				sb.WriteString("[" + sep + a.Name + ":" + a.Type.String() + "]")
			} else {
				sb.WriteString(sep + a.Name + ":" + a.Type.String())
			}
		}
	}
	if len(m.Rets) > 0 {
		sb.WriteString(" -> ")
		for i := range m.Rets {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(m.Rets[i].Name + ":" + m.Rets[i].Type.String())
		}
	}
	return sb.String()
}

// CompareVersions orders two "major.minor" interface versions, returning
// <0, 0 or >0. Non-numeric components fall back to string comparison.
func CompareVersions(a, b string) int {
	as, bs := strings.Split(a, "."), strings.Split(b, ".")
	for i := 0; i < len(as) || i < len(bs); i++ {
		var av, bv string
		if i < len(as) {
			av = as[i]
		}
		if i < len(bs) {
			bv = bs[i]
		}
		an, aerr := strconv.Atoi(av)
		bn, berr := strconv.Atoi(bv)
		if aerr == nil && berr == nil {
			if an != bn {
				return an - bn
			}
			continue
		}
		if av != bv {
			return strings.Compare(av, bv)
		}
	}
	return 0
}
