package xif

import (
	"fmt"
	"net/netip"

	"xorp/internal/xrl"
)

// reader reads a call's arguments, or a reply's atoms, once they have
// passed the check against their declaration: the binding checks a call
// before its handler runs, Spec.reply a reply before its stub decodes it.
// So a read cannot fail. A declared atom that is not there — an optional
// one left out, or any of a reply that failed — reads as its type's
// zero. A read of a name the declaration does not list, or as a type it
// does not declare the name with, panics: the handler or stub is wrong,
// not the call.
type reader struct {
	args xrl.Args
	decl []Arg
}

// absent is what a read of a declared atom that is not there finds.
// Nothing writes it.
var absent xrl.Atom

// atom returns the atom named name, declared with a type t accepts.
func (r reader) atom(name string, t xrl.AtomType) *xrl.Atom {
	for i := range r.decl {
		if d := &r.decl[i]; d.Name == name && t.Accepts(d.Type) {
			if a, ok := r.args.Get(name); ok {
				return a
			}
			return &absent
		}
	}
	panic(fmt.Sprintf("xif: read of undeclared atom %s:%v", name, t))
}

func (r reader) boolean(name string) bool     { return r.atom(name, xrl.TypeBool).BoolVal }
func (r reader) u32(name string) uint32       { return uint32(r.atom(name, xrl.TypeU32).IntVal) }
func (r reader) fp64(name string) float64     { return r.atom(name, xrl.TypeFP64).F64Val }
func (r reader) text(name string) string      { return r.atom(name, xrl.TypeText).TextVal }
func (r reader) addr(name string) netip.Addr  { return r.atom(name, xrl.TypeIPv4).AddrVal }
func (r reader) net(name string) netip.Prefix { return r.atom(name, xrl.TypeIPv4Net).NetVal }
func (r reader) binary(name string) []byte    { return r.atom(name, xrl.TypeBinary).BinVal }
func (r reader) list(name string) []xrl.Atom  { return r.atom(name, xrl.TypeList).ListVal }
func (r reader) texts(name string) []string   { return textList(r.list(name)) }

// reply checks a reply to method against the atoms the method declares
// it returns, once: a reply that breaks them is xrl.CodeBadArgs. The
// reader reads the reply's atoms, each as its zero when the call failed.
func (s *Spec) reply(method string, args xrl.Args, err *xrl.Error) (reader, *xrl.Error) {
	m, ok := s.byName[method]
	if !ok {
		panic("xif: reply to undeclared method " + s.Command(method))
	}
	if err == nil {
		if cerr := checkAtoms(m.Rets, args); cerr != nil {
			err = xrl.Errorf(xrl.CodeBadArgs, "method %s reply: %v", method, cerr)
		}
	}
	if err != nil {
		return reader{decl: m.Rets}, err
	}
	return reader{args: args, decl: m.Rets}, nil
}
