package xrl

import (
	"fmt"
	"strings"
)

// Protocol names. "finder" marks an unresolved XRL; the rest name the
// protocol families of §6.3.
const (
	ProtoFinder = "finder" // unresolved: target is a generic component name
	ProtoSTCP   = "stcp"   // resolved: pipelined TCP
	ProtoSUDP   = "sudp"   // resolved: datagram UDP (stop-and-wait)
	ProtoIntra  = "intra"  // resolved: direct call within the process group
	ProtoKill   = "kill"   // resolved: delivers a signal to a local process
)

// XRL is one XORP Resource Locator: a method call on a component.
type XRL struct {
	// Protocol is ProtoFinder for a generic (unresolved) XRL, or the
	// protocol family selected by the Finder after resolution.
	Protocol string
	// Target is the component name ("bgp") when unresolved, or the
	// transport endpoint ("192.1.2.3:16878" or an intra-process component
	// instance name) when resolved.
	Target string
	// Interface, Version and Method identify the call, e.g. bgp/1.0/set_local_as.
	Interface string
	Version   string
	Method    string
	// Key is the Finder-issued random method key present on resolved XRLs
	// (§7); receivers reject calls whose key does not match.
	Key string
	// Args carries the typed arguments.
	Args Args
}

// New returns an unresolved XRL for target with command "iface/version/method".
func New(target, iface, version, method string, args ...Atom) XRL {
	return XRL{
		Protocol:  ProtoFinder,
		Target:    target,
		Interface: iface,
		Version:   version,
		Method:    method,
		Args:      args,
	}
}

// Command returns "interface/version/method".
func (x XRL) Command() string {
	return x.Interface + "/" + x.Version + "/" + x.Method
}

// IsResolved reports whether the XRL has been through Finder resolution.
func (x XRL) IsResolved() bool { return x.Protocol != ProtoFinder && x.Protocol != "" }

// String renders the canonical textual form:
//
//	protocol://target/interface/version/method?name:type=value&...
//
// A resolved XRL's method carries the Finder key as "key-method".
func (x XRL) String() string {
	var sb strings.Builder
	sb.WriteString(x.Protocol)
	sb.WriteString("://")
	sb.WriteString(x.Target)
	sb.WriteByte('/')
	sb.WriteString(x.Interface)
	sb.WriteByte('/')
	sb.WriteString(x.Version)
	sb.WriteByte('/')
	if x.Key != "" {
		sb.WriteString(x.Key)
		sb.WriteByte('-')
	}
	sb.WriteString(x.Method)
	for i, a := range x.Args {
		if i == 0 {
			sb.WriteByte('?')
		} else {
			sb.WriteByte('&')
		}
		sb.WriteString(a.String())
	}
	return sb.String()
}

// Parse parses the canonical textual form produced by String. It is the
// entry point for the paper's "call_xrl" scriptability: any shell script
// can compose a call as text.
func Parse(s string) (XRL, error) {
	var x XRL
	proto, rest, ok := strings.Cut(s, "://")
	if !ok {
		return x, fmt.Errorf("xrl: missing protocol separator in %q", s)
	}
	x.Protocol = proto

	var query string
	rest, query, _ = strings.Cut(rest, "?")

	// rest = target/interface/version/method. The target may itself
	// contain host:port; it cannot contain '/'.
	parts := strings.Split(rest, "/")
	if len(parts) != 4 {
		return x, fmt.Errorf("xrl: want target/interface/version/method, got %q", rest)
	}
	x.Target, x.Interface, x.Version, x.Method = parts[0], parts[1], parts[2], parts[3]
	if x.Target == "" || x.Interface == "" || x.Version == "" || x.Method == "" {
		return x, fmt.Errorf("xrl: empty component in %q", rest)
	}
	if x.Protocol != ProtoFinder {
		// Resolved XRLs carry "key-method".
		if key, m, found := strings.Cut(x.Method, "-"); found {
			x.Key, x.Method = key, m
		}
	}

	if query == "" {
		return x, nil
	}
	for _, kv := range strings.Split(query, "&") {
		nameType, val, found := strings.Cut(kv, "=")
		if !found {
			return x, fmt.Errorf("xrl: argument %q has no value", kv)
		}
		name, typeName, found := strings.Cut(nameType, ":")
		if !found {
			return x, fmt.Errorf("xrl: argument %q has no type", kv)
		}
		typ, ok := typeByName[typeName]
		if !ok {
			return x, fmt.Errorf("xrl: unknown atom type %q in %q", typeName, kv)
		}
		unval, err := unescape(val)
		if err != nil {
			return x, fmt.Errorf("xrl: %w", err)
		}
		a, err := ParseAtomValue(name, typ, unval)
		if err != nil {
			return x, err
		}
		x.Args = append(x.Args, a)
	}
	return x, nil
}
