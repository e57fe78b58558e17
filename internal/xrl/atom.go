// Package xrl implements XORP Resource Locators (paper §6.1): the typed,
// human-readable, scriptable IPC calls used between all XORP components.
//
// An XRL names a component ("target"), an interface, a version, a method
// and a list of typed, named arguments. Its canonical form is textual and
// URL-like:
//
//	finder://bgp/bgp/1.0/set_local_as?as:u32=1777
//
// and after Finder resolution:
//
//	stcp://192.1.2.3:16878/bgp/1.0/set_local_as?as:u32=1777
//
// Internally XRLs are encoded with a compact binary codec (wire.go) in the
// preallocated encode/decode style. The argument types are the core XORP
// atom types: bool, i32, u32, i64, u64, fp64, txt, ipv4, ipv6, ipv4net,
// ipv6net, binary and list, plus route: one forwarding entry (prefix,
// next hop, metric, interface) as a single atom, so a list XRL carries a
// run of routes without any of them becoming text.
package xrl

import (
	"bytes"
	"fmt"
	"net/netip"
	"strconv"
	"strings"
)

// AtomType identifies the type of an XRL argument.
type AtomType uint8

// The XRL atom types. The wire and textual names follow XORP.
const (
	TypeInvalid AtomType = iota
	TypeBool
	TypeI32
	TypeU32
	TypeI64
	TypeU64
	TypeFP64
	TypeText
	TypeIPv4
	TypeIPv6
	TypeIPv4Net
	TypeIPv6Net
	TypeBinary
	TypeList
	TypeRoute
)

var typeNames = map[AtomType]string{
	TypeBool:    "bool",
	TypeI32:     "i32",
	TypeU32:     "u32",
	TypeI64:     "i64",
	TypeU64:     "u64",
	TypeFP64:    "fp64",
	TypeText:    "txt",
	TypeIPv4:    "ipv4",
	TypeIPv6:    "ipv6",
	TypeIPv4Net: "ipv4net",
	TypeIPv6Net: "ipv6net",
	TypeBinary:  "binary",
	TypeList:    "list",
	TypeRoute:   "route",
}

var typeByName = func() map[string]AtomType {
	m := make(map[string]AtomType, len(typeNames))
	for t, n := range typeNames {
		m[n] = t
	}
	return m
}()

// String returns the XORP textual name of the type ("u32", "ipv4net", ...).
func (t AtomType) String() string {
	if n, ok := typeNames[t]; ok {
		return n
	}
	return fmt.Sprintf("atomtype(%d)", uint8(t))
}

// Atom is one named, typed XRL argument. Exactly one value field is
// meaningful, selected by Type.
type Atom struct {
	Name string
	Type AtomType

	BoolVal bool
	IntVal  int64 // holds i32/u32/i64/u64
	F64Val  float64
	TextVal string
	AddrVal netip.Addr   // ipv4 / ipv6
	NetVal  netip.Prefix // ipv4net / ipv6net
	// A route atom is a compound of the fields above: NetVal is the
	// prefix, AddrVal the next hop (the zero Addr when there is none),
	// IntVal the u32 metric and TextVal the interface name ("" for none).
	BinVal  []byte
	ListVal []Atom
}

// Constructors for each atom type.

// Bool returns a bool atom.
func Bool(name string, v bool) Atom { return Atom{Name: name, Type: TypeBool, BoolVal: v} }

// U32 returns a u32 atom.
func U32(name string, v uint32) Atom { return Atom{Name: name, Type: TypeU32, IntVal: int64(v)} }

// FP64 returns an fp64 atom.
func FP64(name string, v float64) Atom { return Atom{Name: name, Type: TypeFP64, F64Val: v} }

// Text returns a txt atom.
func Text(name, v string) Atom { return Atom{Name: name, Type: TypeText, TextVal: v} }

// IPv4 returns an ipv4 atom.
func IPv4(name string, a netip.Addr) Atom { return Atom{Name: name, Type: TypeIPv4, AddrVal: a} }

// IPv6 returns an ipv6 atom.
func IPv6(name string, a netip.Addr) Atom { return Atom{Name: name, Type: TypeIPv6, AddrVal: a} }

// Addr returns an ipv4 or ipv6 atom depending on a's family.
func Addr(name string, a netip.Addr) Atom {
	if a.Is4() {
		return IPv4(name, a)
	}
	return IPv6(name, a)
}

// IPv4Net returns an ipv4net atom.
func IPv4Net(name string, p netip.Prefix) Atom {
	return Atom{Name: name, Type: TypeIPv4Net, NetVal: p}
}

// IPv6Net returns an ipv6net atom.
func IPv6Net(name string, p netip.Prefix) Atom {
	return Atom{Name: name, Type: TypeIPv6Net, NetVal: p}
}

// Net returns an ipv4net or ipv6net atom depending on p's family.
func Net(name string, p netip.Prefix) Atom {
	if p.Addr().Is4() {
		return IPv4Net(name, p)
	}
	return IPv6Net(name, p)
}

// Route returns a route atom: one forwarding entry. A zero nexthop and an
// empty ifname mean "none".
func Route(name string, net netip.Prefix, nexthop netip.Addr, metric uint32, ifname string) Atom {
	return Atom{Name: name, Type: TypeRoute, NetVal: net, AddrVal: nexthop, IntVal: int64(metric), TextVal: ifname}
}

// Binary returns a binary atom. The slice is not copied.
func Binary(name string, v []byte) Atom { return Atom{Name: name, Type: TypeBinary, BinVal: v} }

// List returns a list atom.
func List(name string, items ...Atom) Atom {
	return Atom{Name: name, Type: TypeList, ListVal: items}
}

// Equal reports deep equality of two atoms.
func (a Atom) Equal(b Atom) bool {
	if a.Name != b.Name || a.Type != b.Type {
		return false
	}
	switch a.Type {
	case TypeBool:
		return a.BoolVal == b.BoolVal
	case TypeI32, TypeU32, TypeI64, TypeU64:
		return a.IntVal == b.IntVal
	case TypeFP64:
		return a.F64Val == b.F64Val
	case TypeText:
		return a.TextVal == b.TextVal
	case TypeIPv4, TypeIPv6:
		return a.AddrVal == b.AddrVal
	case TypeIPv4Net, TypeIPv6Net:
		return a.NetVal == b.NetVal
	case TypeBinary:
		return bytes.Equal(a.BinVal, b.BinVal)
	case TypeRoute:
		return a.NetVal == b.NetVal && a.AddrVal == b.AddrVal &&
			a.IntVal == b.IntVal && a.TextVal == b.TextVal
	case TypeList:
		if len(a.ListVal) != len(b.ListVal) {
			return false
		}
		for i := range a.ListVal {
			if !a.ListVal[i].Equal(b.ListVal[i]) {
				return false
			}
		}
		return true
	}
	return false
}

// valueString renders the atom's value in canonical textual form
// (unescaped).
func (a Atom) valueString() string {
	switch a.Type {
	case TypeBool:
		if a.BoolVal {
			return "true"
		}
		return "false"
	case TypeI32, TypeI64:
		return strconv.FormatInt(a.IntVal, 10)
	case TypeU32:
		return strconv.FormatUint(uint64(uint32(a.IntVal)), 10)
	case TypeU64:
		return strconv.FormatUint(uint64(a.IntVal), 10)
	case TypeFP64:
		return strconv.FormatFloat(a.F64Val, 'g', -1, 64)
	case TypeText:
		return a.TextVal
	case TypeIPv4, TypeIPv6:
		return a.AddrVal.String()
	case TypeIPv4Net, TypeIPv6Net:
		return a.NetVal.String()
	case TypeBinary:
		return hexEncode(a.BinVal)
	case TypeRoute:
		// "net nexthop metric ifname", "-" for an absent nexthop or ifname.
		nh, ifn := "-", "-"
		if a.AddrVal.IsValid() {
			nh = a.AddrVal.String()
		}
		if a.TextVal != "" {
			ifn = a.TextVal
		}
		return a.NetVal.String() + " " + nh + " " +
			strconv.FormatUint(uint64(uint32(a.IntVal)), 10) + " " + ifn
	case TypeList:
		parts := make([]string, len(a.ListVal))
		for i, item := range a.ListVal {
			parts[i] = escape(item.valueString())
		}
		return strings.Join(parts, ",")
	}
	return ""
}

// String renders the atom as "name:type=value" with value escaping.
func (a Atom) String() string {
	return a.Name + ":" + a.Type.String() + "=" + escape(a.valueString())
}

// ParseAtomValue parses the textual value (already unescaped) for typ:
// the part after "=" in "name:type=value". List values parse as txt
// items; typed lists round-trip via the binary codec, matching XORP,
// where textual lists are flat.
func ParseAtomValue(name string, typ AtomType, val string) (Atom, error) {
	a := Atom{Name: name, Type: typ}
	var err error
	switch typ {
	case TypeBool:
		switch val {
		case "true", "1":
			a.BoolVal = true
		case "false", "0":
			a.BoolVal = false
		default:
			err = fmt.Errorf("bad bool %q", val)
		}
	case TypeI32:
		var v int64
		v, err = strconv.ParseInt(val, 10, 32)
		a.IntVal = v
	case TypeI64:
		a.IntVal, err = strconv.ParseInt(val, 10, 64)
	case TypeU32:
		var v uint64
		v, err = strconv.ParseUint(val, 10, 32)
		a.IntVal = int64(v)
	case TypeU64:
		var v uint64
		v, err = strconv.ParseUint(val, 10, 64)
		a.IntVal = int64(v)
	case TypeFP64:
		a.F64Val, err = strconv.ParseFloat(val, 64)
	case TypeText:
		a.TextVal = val
	case TypeIPv4:
		a.AddrVal, err = netip.ParseAddr(val)
		if err == nil && !a.AddrVal.Is4() {
			err = fmt.Errorf("%q is not IPv4", val)
		}
	case TypeIPv6:
		a.AddrVal, err = netip.ParseAddr(val)
		if err == nil && a.AddrVal.Is4() {
			err = fmt.Errorf("%q is not IPv6", val)
		}
	case TypeIPv4Net:
		a.NetVal, err = netip.ParsePrefix(val)
		if err == nil && !a.NetVal.Addr().Is4() {
			err = fmt.Errorf("%q is not an IPv4 prefix", val)
		}
	case TypeIPv6Net:
		a.NetVal, err = netip.ParsePrefix(val)
		if err == nil && a.NetVal.Addr().Is4() {
			err = fmt.Errorf("%q is not an IPv6 prefix", val)
		}
	case TypeBinary:
		a.BinVal, err = hexDecode(val)
	case TypeRoute:
		err = a.parseRoute(val)
	case TypeList:
		if val != "" {
			for _, part := range strings.Split(val, ",") {
				s, uerr := unescape(part)
				if uerr != nil {
					return a, uerr
				}
				a.ListVal = append(a.ListVal, Text("", s))
			}
		}
	default:
		err = fmt.Errorf("unknown atom type %q", typ)
	}
	if err != nil {
		return a, fmt.Errorf("xrl: atom %q: %w", name, err)
	}
	return a, nil
}

// parseRoute fills a route atom from its textual value,
// "net nexthop metric ifname" with "-" for an absent nexthop or ifname.
func (a *Atom) parseRoute(val string) error {
	fields := strings.Fields(val)
	if len(fields) != 4 {
		return fmt.Errorf("malformed route %q, want \"net nexthop metric ifname\"", val)
	}
	var err error
	if a.NetVal, err = netip.ParsePrefix(fields[0]); err != nil {
		return fmt.Errorf("route net: %v", err)
	}
	if fields[1] != "-" {
		if a.AddrVal, err = netip.ParseAddr(fields[1]); err != nil {
			return fmt.Errorf("route nexthop: %v", err)
		}
	}
	metric, err := strconv.ParseUint(fields[2], 10, 32)
	if err != nil {
		return fmt.Errorf("route metric: %v", err)
	}
	a.IntVal = int64(metric)
	if fields[3] != "-" {
		a.TextVal = fields[3]
	}
	return nil
}

const hexdigits = "0123456789abcdef"

func hexEncode(b []byte) string {
	var sb strings.Builder
	sb.Grow(2 * len(b))
	for _, c := range b {
		sb.WriteByte(hexdigits[c>>4])
		sb.WriteByte(hexdigits[c&0xf])
	}
	return sb.String()
}

func hexDecode(s string) ([]byte, error) {
	if len(s)%2 != 0 {
		return nil, fmt.Errorf("odd-length hex %q", s)
	}
	out := make([]byte, len(s)/2)
	for i := 0; i < len(out); i++ {
		hi := strings.IndexByte(hexdigits, lower(s[2*i]))
		lo := strings.IndexByte(hexdigits, lower(s[2*i+1]))
		if hi < 0 || lo < 0 {
			return nil, fmt.Errorf("bad hex %q", s)
		}
		out[i] = byte(hi<<4 | lo)
	}
	return out, nil
}

func lower(c byte) byte {
	if 'A' <= c && c <= 'F' {
		return c + ('a' - 'A')
	}
	return c
}

// escape percent-encodes characters that are structural in XRL text form.
func escape(s string) string {
	var sb strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '&' || c == '=' || c == '%' || c == '?' || c == ',' || c < 0x20 || c == 0x7f {
			sb.WriteByte('%')
			sb.WriteByte(hexdigits[c>>4])
			sb.WriteByte(hexdigits[c&0xf])
		} else {
			sb.WriteByte(c)
		}
	}
	return sb.String()
}

func unescape(s string) (string, error) {
	if !strings.ContainsRune(s, '%') {
		return s, nil
	}
	var sb strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '%' {
			sb.WriteByte(c)
			continue
		}
		if i+2 >= len(s) {
			return "", fmt.Errorf("truncated %%-escape in %q", s)
		}
		hi := strings.IndexByte(hexdigits, lower(s[i+1]))
		lo := strings.IndexByte(hexdigits, lower(s[i+2]))
		if hi < 0 || lo < 0 {
			return "", fmt.Errorf("bad %%-escape in %q", s)
		}
		sb.WriteByte(byte(hi<<4 | lo))
		i += 2
	}
	return sb.String(), nil
}

// Args is a list of atoms with typed accessors. Accessors return an
// *Error with CodeBadArgs on a missing argument or type mismatch, so
// method handlers can return the accessor error directly.
type Args []Atom

// Get returns the atom named name. The atom points into as.
func (as Args) Get(name string) (*Atom, bool) {
	for i := range as {
		if as[i].Name == name {
			return &as[i], true
		}
	}
	return nil, false
}

// Accepts reports whether an atom of type got satisfies a declaration of
// type t. Address and prefix declarations accept either family, as the
// NetArg accessor does.
func (t AtomType) Accepts(got AtomType) bool {
	if t == got {
		return true
	}
	switch t {
	case TypeIPv4, TypeIPv6:
		return got == TypeIPv4 || got == TypeIPv6
	case TypeIPv4Net, TypeIPv6Net:
		return got == TypeIPv4Net || got == TypeIPv6Net
	}
	return false
}

// typed returns the atom named name, whose type t must accept; the zero
// atom on an error, so an accessor's value reads as its zero value. The
// atom points into as.
func (as Args) typed(name string, t AtomType) (*Atom, error) {
	a, ok := as.Get(name)
	if !ok {
		return &zeroAtom, &Error{Code: CodeBadArgs, Note: "missing argument " + name}
	}
	if !t.Accepts(a.Type) {
		return &zeroAtom, &Error{Code: CodeBadArgs,
			Note: fmt.Sprintf("argument %s has type %v, want %v", name, a.Type, t)}
	}
	return a, nil
}

// zeroAtom is what typed returns on an error. Nothing writes it.
var zeroAtom Atom

// BoolArg returns the named bool argument.
func (as Args) BoolArg(name string) (bool, error) {
	a, err := as.typed(name, TypeBool)
	return a.BoolVal, err
}

// TextArg returns the named txt argument.
func (as Args) TextArg(name string) (string, error) {
	a, err := as.typed(name, TypeText)
	return a.TextVal, err
}

// NetArg returns the named ipv4net or ipv6net argument.
func (as Args) NetArg(name string) (netip.Prefix, error) {
	a, err := as.typed(name, TypeIPv4Net)
	return a.NetVal, err
}

// ListArg returns the named list argument.
func (as Args) ListArg(name string) ([]Atom, error) {
	a, err := as.typed(name, TypeList)
	return a.ListVal, err
}
