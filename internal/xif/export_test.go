package xif

import (
	"fmt"

	"xorp/internal/route"
	"xorp/internal/xrl"
)

// EncodeRouteAtoms encodes a batch of entries as list items, for tests
// that build a list XRL by hand.
func EncodeRouteAtoms(es []route.Entry) []xrl.Atom {
	items := make([]xrl.Atom, len(es))
	putRoutes(items, es)
	return items
}

// SampleArgs builds a plausible argument list for the method from the
// spec (the spec-conformance tests drive every bound handler with it).
func (m *Method) SampleArgs() (xrl.Args, error) {
	if m.AnyArgs {
		return nil, nil
	}
	var args xrl.Args
	for i := range m.Args {
		d := &m.Args[i]
		a, err := sampleAtom(d)
		if err != nil {
			return nil, fmt.Errorf("method %s: %v", m.Name, err)
		}
		args = append(args, a)
	}
	return args, nil
}

func sampleAtom(d *Arg) (xrl.Atom, error) {
	val := d.Sample
	if val == "" {
		switch d.Type {
		case xrl.TypeBool:
			val = "true"
		case xrl.TypeI32, xrl.TypeU32, xrl.TypeI64, xrl.TypeU64:
			val = "1"
		case xrl.TypeFP64:
			val = "1.5"
		case xrl.TypeText:
			val = "sample"
		case xrl.TypeIPv4:
			val = "192.0.2.1"
		case xrl.TypeIPv6:
			val = "2001:db8::1"
		case xrl.TypeIPv4Net:
			val = "192.0.2.0/24"
		case xrl.TypeIPv6Net:
			val = "2001:db8::/32"
		case xrl.TypeBinary:
			val = "00ff"
		case xrl.TypeList:
			return xrl.List(d.Name), nil
		default:
			return xrl.Atom{}, fmt.Errorf("no sample for type %v", d.Type)
		}
	}
	if d.Type == xrl.TypeList {
		// A sample list holds one text item.
		return xrl.List(d.Name, xrl.Text("", val)), nil
	}
	return xrl.ParseAtomValue(d.Name, d.Type, val)
}
