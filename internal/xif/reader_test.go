package xif

import (
	"net/netip"
	"testing"

	"xorp/internal/xrl"
)

// TestReaderReadsOnlyTheDeclaration: a reader hands back what the call
// carries, zero for a declared atom it left out, and panics on a read the
// declaration does not allow — a name it does not list, or a type it does
// not give the name — whether or not the call carries that atom.
func TestReaderReadsOnlyTheDeclaration(t *testing.T) {
	m, _ := BGPSpec.Method("add_peer")
	in := reader{args: xrl.Args{
		xrl.Text("name", "p"), xrl.Addr("local_addr", netip.MustParseAddr("2001:db8::1")),
		xrl.U32("holdtime", 90),
	}, decl: m.Args}
	if in.text("name") != "p" || in.u32("holdtime") != 90 || in.addr("local_addr") != netip.MustParseAddr("2001:db8::1") {
		t.Fatal("a carried atom read wrong")
	}
	if in.text("group") != "" || in.u32("as") != 0 {
		t.Fatal("an absent declared atom did not read as zero")
	}
	for what, read := range map[string]func(){
		"an undeclared name":           func() { in.text("nmae") },
		"a declared name as u32":       func() { in.u32("name") },
		"an absent declared name, txt": func() { in.text("as") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("a read of %s did not panic", what)
				}
			}()
			read()
		}()
	}
}
