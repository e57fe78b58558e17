package xorp

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"path"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The architecture rules: the paper's one stage interface (§5) and one
// IPC mechanism with typed interfaces (§6), and the duals this repo has
// deleted, kept deleted. Each rule is a check over the module's type
// objects, import graph and syntax (reach_test.go's loader), and each
// proves it can fail: TestArchitecture runs it once more on every planted
// violation it lists, a file added in memory to a loaded package, and
// fails if the check does not report it.
var rules = []rule{
	{"xif drift", checkXIFDrift, []plant{
		{"cmd/call_xrl", "planted.go", `package main; import "xorp/internal/xrl"; var _ = xrl.New("rib", "rib", "1.0", "x")`},
		{"cmd/call_xrl", "planted.go", `package main; import "xorp/internal/xipc"; var _ = (*xipc.Target).Register`},
		{"cmd/call_xrl", "planted.go", `package main; const m = "delete_route4"`},
		{"cmd/call_xrl", "planted.go", `package main; import "xorp/internal/xipc"; var _ = (*xipc.Router).Compose`},
	}},
	{"xif reads", checkXIFReads, []plant{
		{"internal/xif", "planted.go", `package xif; import "xorp/internal/xrl"; func planted(a xrl.Args) { _, _ = a.TextArg("x") }`},
		{"internal/xif", "planted.go", `package xif; import "xorp/internal/xrl"; func planted(a xrl.Args) *xrl.Atom { p, _ := a.Get("x"); return p }`},
	}},
	{"rtrmgr core names no protocol", checkCoreNamesNoProtocol, []plant{
		{"internal/rtrmgr", "txn.go", `package rtrmgr; import _ "xorp/internal/ospf"`},
		{"internal/rtrmgr", "supervisor.go", `package rtrmgr; func planted(class string) bool { return class == "rip" }`},
	}},
	{"rtrmgr wires protocols over XRLs only", checkWiresOverXRLs, []plant{
		{"internal/rtrmgr", "planted_test.go", `package rtrmgr; func planted(r *Router) { _ = r.FEA.UDP }`},
		{"internal/rtrmgr", "planted.go", `package rtrmgr; type planted struct{ dead bool }; func (p *planted) loopRedist() bool { return p.dead }`},
		{"internal/rtrmgr", "planted.go", `package rtrmgr; func addInterface() {}`},
		{"internal/rtrmgr", "modules.go", `package rtrmgr; func planted(r *Router) { _ = r.RIB }`},
	}},
	{"cmd mains build no process by hand", checkMainsBuildNoProcess, []plant{
		{"cmd/xorp_bgp", "planted.go", `package main; import "xorp/internal/bgp"; var _ = bgp.NewProcess`},
		{"cmd/xorp_fea", "planted_test.go", `package main; import "xorp/internal/fea"; var _ = fea.New`},
	}},
	{"modules.go never reaches the Router", checkModulesNeverReachRouter, []plant{
		{"internal/rtrmgr", "modules.go", `package rtrmgr; var planted *Router`},
	}},
	{"one LPM type", checkOneLPMType, []plant{
		{"internal/trie", "planted.go", `package trie; type Iterator struct{}`},
		{"cmd/call_xrl", "planted.go", `package main; type it struct{}; func (it) IterateFrom() {}; var _ = it{}.IterateFrom`},
		{"internal/rib", "planted_test.go", `package rib; import "xorp/internal/trie"; var _ *trie.Trie`},
	}},
	{"one stage machinery", checkOneStageMachinery, []plant{
		{"cmd/call_xrl", "planted.go", `package main; type relay interface { Name() string; Add(run []int); Replace(old, new int); Delete(run []int) }`},
		{"cmd/call_xrl", "planted.go", `package main; type runEmitter struct{}`},
		{"cmd/call_xrl", "planted.go", `package main; type base struct{}`},
		{"cmd/call_xrl", "planted.go", `package main; func Splice() {}`},
		{"cmd/call_xrl", "planted.go", `package main; func planted() { panic("origin has no upstream") }`},
		{"internal/bgp", "planted_test.go", `package bgp; type Table interface { Lookup() }`},
	}},
	{"FIB batch folds nothing", checkFIBBatchFoldsNothing, []plant{
		{"internal/rib", "fibbatch.go", `package rib; type fibIndex struct{ byNet []map[string]int }`},
		{"internal/rib", "planted.go", `package rib; const fibOpNone FIBOpKind = 0`},
		{"internal/kernel", "planted_test.go", `package kernel; var fibOpNone = 0`},
	}},
	{"a command resolves as named", checkCommandResolvesAsNamed, []plant{
		{"internal/xif", "planted.go", `package xif; func (s Spec) Compatible(v string) bool { return v == s.Version }`},
		{"cmd/call_xrl", "planted.go", `package main; func negotiateVersion() {}`},
	}},
	{"no empty filter bank", checkNoEmptyFilterBank, []plant{
		{"cmd/call_xrl", "planted.go", "package main\n\nimport \"xorp/internal/bgp\"\n\nvar _ = bgp.NewFilterBank(\"x\",\n)\n"},
	}},
}

// rule is one architecture rule: its check, and the violations it must
// report.
type rule struct {
	name   string
	check  func(m *module) []finding
	plants []plant
}

// plant is a planted violation: the source of a file named name in the
// package in dir.
type plant struct{ dir, name, src string }

// finding is one violation a check reports.
type finding struct {
	pos token.Pos
	msg string
}

// TestArchitecture fails on each violation of a rule in the module, and on
// each planted violation a rule's check does not report.
func TestArchitecture(t *testing.T) {
	m := loadModule(t)
	for _, r := range rules {
		t.Run(r.name, func(t *testing.T) {
			for _, f := range r.check(m) {
				t.Errorf("%s: %s", m.fset.Position(f.pos), f.msg)
			}
			for _, pl := range r.plants {
				v, file := m.plant(t, pl.dir, pl.name, pl.src)
				if !slices.ContainsFunc(r.check(v), func(f finding) bool {
					return f.pos.IsValid() && m.fset.File(f.pos) == file
				}) {
					t.Errorf("the check misses a planted violation, %s in %s:\n%s", pl.name, pl.dir, pl.src)
				}
			}
		})
	}
}

const (
	xrlPath  = "xorp/internal/xrl"
	xipcPath = "xorp/internal/xipc"
)

// checkXIFDrift: no non-test code may bypass the typed XRL interface
// layer with raw Target.Register or xrl.New, name a single-route wire
// method (the stubs take runs and pick the wire form; redist4/0.1's
// add_route4 and delete_route4 are the stub's to send, and routes reach
// the RIB and the FEA only as runs, in the list XRLs), or send through
// Router.SendArgs or Router.Compose, the stubs' own entry points, outside
// internal/xif and internal/xipc. A new method belongs in a internal/xif
// Spec with a Bind and a stub. Tests may pin wire formats and drive the
// edge cases the typed surface forbids.
func checkXIFDrift(m *module) (out []finding) {
	perRoute := []string{"add_route4", "delete_route4", "add_entry4", "delete_entry4"}
	for _, p := range m.pkgs {
		if under(p.dir, "internal/xif") {
			continue
		}
		xipc := under(p.dir, "internal/xipc")
		inspect(p.files, func(_ *ast.File, n ast.Node) {
			if s, ok := p.stringValue(n); ok && slices.Contains(perRoute, s) {
				out = append(out, finding{n.Pos(), "per-route wire method " + s + ": use the xif stub"})
			}
			id, ok := n.(*ast.Ident)
			if !ok {
				return
			}
			fn, _ := p.info.Uses[id].(*types.Func)
			switch {
			case is(fn, xrlPath, "", "New"):
				out = append(out, finding{id.Pos(), "hand-built XRL: use a xif client stub or Spec.NewXRL"})
			case is(fn, xipcPath, "Target", "Register"):
				out = append(out, finding{id.Pos(), "raw Target.Register: use a xif Bind"})
			case !xipc && (is(fn, xipcPath, "Router", "SendArgs") || is(fn, xipcPath, "Router", "Compose")):
				out = append(out, finding{id.Pos(), "Router." + fn.Name() + " is the stubs' send entry point: use a xif client stub"})
			}
		})
	}
	return out
}

// checkXIFReads: inside internal/xif, calls and replies are checked
// against the Spec once, where they arrive, and read through the reader,
// whose reads cannot fail. So an xrl.Args method that can fail, or a Get
// that drops whether the atom is there, belongs to reader.go alone.
func checkXIFReads(m *module) (out []finding) {
	p := m.pkg("internal/xif")
	inspect(p.files, func(f *ast.File, n ast.Node) {
		if m.base(f) == "reader.go" {
			return
		}
		switch n := n.(type) {
		case *ast.Ident:
			fn, _ := p.info.Uses[n].(*types.Func)
			if fn == nil || recvName(fn) != "Args" || fn.Pkg().Path() != xrlPath {
				return
			}
			res := fn.Type().(*types.Signature).Results()
			if res.Len() > 0 && types.Identical(res.At(res.Len()-1).Type(), types.Universe.Lookup("error").Type()) {
				out = append(out, finding{n.Pos(), "xrl.Args." + fn.Name() + " can fail: read the checked atoms through the reader"})
			}
		case *ast.AssignStmt:
			if len(n.Lhs) == 2 && len(n.Rhs) == 1 && isBlank(n.Lhs[1]) && is(p.callee(n.Rhs[0]), xrlPath, "Args", "Get") {
				out = append(out, finding{n.Pos(), "a Get that drops whether the atom is there: read the checked atoms through the reader"})
			}
		}
	})
	return out
}

// checkCoreNamesNoProtocol: the router manager's core walks one table of
// process classes (internal/rtrmgr/modules.go holds it and everything per
// protocol). A protocol package imported, or a class name held, in
// supervisor.go, txn.go or txagents.go is a second setup / teardown /
// respawn / stage path coming back.
func checkCoreNamesNoProtocol(m *module) (out []finding) {
	protocols := []string{"bgp", "rip", "ospf"}
	p := m.pkg("internal/rtrmgr")
	for _, f := range p.files {
		if !slices.Contains([]string{"supervisor.go", "txn.go", "txagents.go"}, m.base(f)) {
			continue
		}
		for _, spec := range f.Imports {
			path, _ := strconv.Unquote(spec.Path.Value)
			if name, ok := strings.CutPrefix(path, "xorp/internal/"); ok && slices.Contains(protocols, name) {
				out = append(out, finding{spec.Pos(), "the rtrmgr core imports protocol package " + path})
			}
		}
		inspect([]*ast.File{f}, func(_ *ast.File, n ast.Node) {
			if s, ok := p.stringValue(n); ok && slices.Contains(protocols, s) {
				out = append(out, finding{n.Pos(), "the rtrmgr core names protocol class " + strconv.Quote(s)})
			}
		})
	}
	return out
}

// checkWiresOverXRLs: a protocol process reaches the router — the RIB,
// and the network through the FEA's relay — only over XRLs, as the cmd/
// mains wire it: a direct adapter or FEA call here is a second road, and
// one a killed process's timers can still travel. The other direction
// too: the RIB feeds a protocol's redistribution over redist4/0.1 XRLs,
// never by a call onto the protocol's loop, so nothing needs a dead flag
// to stop it reaching a killed process. And each process configures only
// itself: a redistribute statement is the RIB agent's, an interface the
// FEA's and the RIB's, so no agent hops onto another process's loop and no
// module row touches the Router's FEA, its FIB or the RIB.
//
// The names are the deleted roads': no identifier holds one. ribLoopClient,
// onLoop and r.FEA.UDP stay out of the tests too.
func checkWiresOverXRLs(m *module) (out []finding) {
	everywhere := []string{"ribLoopClient", "onLoop"}
	names := append([]string{"loopRedist", "onRIB", "addRedist", "UnspliceRedist", "addInterface"}, everywhere...)
	selected := []string{"dead", "redists", "RedistAdd", "RedistDelete"}
	p := m.pkg("internal/rtrmgr")
	router := p.types.Scope().Lookup("Router")
	inspect(p.files, func(f *ast.File, n ast.Node) {
		switch n := n.(type) {
		case *ast.Ident:
			if slices.ContainsFunc(names, func(s string) bool { return strings.Contains(n.Name, s) }) {
				out = append(out, finding{n.Pos(), n.Name + " is a deleted road between processes"})
			}
		case *ast.SelectorExpr:
			switch {
			case slices.Contains(selected, n.Sel.Name):
				out = append(out, finding{n.Pos(), "." + n.Sel.Name + " is a deleted road between processes"})
			case feaUDP(n):
				out = append(out, finding{n.Pos(), "a direct call on the FEA's relay: send over XRLs"})
			case m.base(f) == "modules.go" && slices.Contains([]string{"FIB", "RIB", "FEA"}, n.Sel.Name) &&
				member(router, p.info.Uses[n.Sel]):
				out = append(out, finding{n.Pos(), "a module row touches the Router's " + n.Sel.Name})
			}
		}
	})
	inspect(p.tests, func(_ *ast.File, n ast.Node) {
		if id, ok := n.(*ast.Ident); ok && slices.ContainsFunc(everywhere, func(s string) bool { return strings.Contains(id.Name, s) }) {
			out = append(out, finding{n.Pos(), id.Name + " is a deleted road between processes"})
		}
		if sel, ok := n.(*ast.SelectorExpr); ok && feaUDP(sel) {
			out = append(out, finding{n.Pos(), "a direct call on the FEA's relay: send over XRLs"})
		}
	})
	return out
}

// feaUDP reports whether sel is x.FEA.UDP or x.FEA.UDP<more>.
func feaUDP(sel *ast.SelectorExpr) bool {
	x, ok := sel.X.(*ast.SelectorExpr)
	return ok && strings.HasPrefix(sel.Sel.Name, "UDP") && x.Sel.Name == "FEA"
}

// checkMainsBuildNoProcess: each cmd/xorp_<proc> main is its flags, a
// Finder address, a config file and rtrmgr.StartProcess: the setup,
// config/0.1 agent, Finder registration and boot plan the router manager
// runs. A process constructor named in a main, or its tests, is a second,
// hand-wired assembly coming back.
func checkMainsBuildNoProcess(m *module) (out []finding) {
	ctors := map[string]string{
		"xorp/internal/bgp": "NewProcess", "xorp/internal/rib": "NewProcess", "xorp/internal/rip": "NewProcess",
		"xorp/internal/ospf": "NewProcess", "xorp/internal/fea": "New",
	}
	report := func(pos token.Pos, pkg, name string) {
		if ctors[pkg] == name {
			out = append(out, finding{pos, "a main builds " + path.Base(pkg) + "." + name + " by hand: use rtrmgr.StartProcess"})
		}
	}
	for _, p := range m.pkgs {
		if !under(p.dir, "cmd") {
			continue
		}
		inspect(p.files, func(_ *ast.File, n ast.Node) {
			if id, ok := n.(*ast.Ident); ok {
				if fn, _ := p.info.Uses[id].(*types.Func); fn != nil && recvName(fn) == "" {
					report(id.Pos(), fn.Pkg().Path(), fn.Name())
				}
			}
		})
		inspect(p.tests, func(f *ast.File, n ast.Node) {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				report(sel.Pos(), imported(f, sel.X), sel.Sel.Name)
			}
		})
	}
	return out
}

// checkModulesNeverReachRouter: a class's setup, stage and begin see their
// instance, the deployment settings and their slice of the plan, and
// nothing else of the Router, so a process builds the same inside a router
// and alone. The file that holds them names no Router, and selects nothing
// of one.
func checkModulesNeverReachRouter(m *module) (out []finding) {
	p := m.pkg("internal/rtrmgr")
	router := p.types.Scope().Lookup("Router")
	for _, f := range p.files {
		if m.base(f) != "modules.go" {
			continue
		}
		inspect([]*ast.File{f}, func(_ *ast.File, n ast.Node) {
			switch n := n.(type) {
			case *ast.Ident:
				if p.info.Uses[n] == router {
					out = append(out, finding{n.Pos(), "modules.go names the Router"})
				}
			case *ast.SelectorExpr:
				if member(router, p.info.Uses[n.Sel]) {
					out = append(out, finding{n.Pos(), "modules.go reaches the Router's " + n.Sel.Name})
				}
			}
		})
	}
	return out
}

// checkOneLPMType: internal/trie has one mutable longest-prefix-match
// table, trie.Table, one long-lived session of the persistent layout
// written in place; §5.3's safe iterator is a key resumed with WalkFrom.
// A second table type (trie.Trie), or a pinned iterator (trie.Iterator, an
// Iterate or IterateFrom method), is the dual coming back.
func checkOneLPMType(m *module) (out []finding) {
	const triePath = "xorp/internal/trie"
	lpmTypes := []string{"Trie", "Iterator"}
	iterators := []string{"Iterate", "IterateFrom"}
	for _, p := range m.pkgs {
		inspect(p.files, func(_ *ast.File, n ast.Node) {
			id, ok := n.(*ast.Ident)
			if !ok {
				return
			}
			obj := p.info.Defs[id]
			if obj == nil {
				obj = p.info.Uses[id]
			}
			switch {
			case obj == nil:
			case obj.Pkg() != nil && obj.Pkg().Path() == triePath && obj.Parent() == obj.Pkg().Scope() && slices.Contains(lpmTypes, obj.Name()):
				out = append(out, finding{id.Pos(), "a second LPM type, trie." + obj.Name()})
			case isMethod(obj) && slices.Contains(iterators, obj.Name()):
				out = append(out, finding{id.Pos(), "a pinned iterator, ." + obj.Name() + ": resume a key with WalkFrom"})
			}
		})
		inspect(p.tests, func(f *ast.File, n ast.Node) {
			sel, ok := n.(*ast.SelectorExpr)
			switch {
			case !ok:
			case imported(f, sel.X) == triePath && slices.Contains(lpmTypes, sel.Sel.Name):
				out = append(out, finding{sel.Pos(), "a second LPM type, trie." + sel.Sel.Name})
			case slices.Contains(iterators, sel.Sel.Name):
				out = append(out, finding{sel.Pos(), "a pinned iterator, ." + sel.Sel.Name + ": resume a key with WalkFrom"})
			}
		})
	}
	return out
}

// checkOneStageMachinery: internal/core holds the one stage message
// interface (Stage), its lookup half (Table), Base with the run emitter,
// Plumb/Splice/Unsplice and the cache stage; bgp.Stage and rib.Stage are
// aliases. A second stage interface (one with Stage's methods, or named
// Stage or Table), base or emitter anywhere else is the BGP/RIB dual
// coming back, and so is an origin (a PeerIn, an origin table) taking
// messages only to panic that it has no upstream.
func checkOneStageMachinery(m *module) (out []finding) {
	stage := m.pkg("internal/core").types.Scope().Lookup("Stage").Type().Underlying().(*types.Interface)
	var stageMethods []string // Name, Add, Replace, Delete
	for i := range stage.NumExplicitMethods() {
		stageMethods = append(stageMethods, stage.ExplicitMethod(i).Name())
	}
	// second reports the declarations of a second stage machinery in one
	// file; methods lists an interface's method names.
	second := func(n ast.Node, methods func(*ast.TypeSpec) []string) {
		switch n := n.(type) {
		case *ast.TypeSpec:
			name := n.Name.Name
			if n.Assign.IsValid() {
				return // an alias names core's
			}
			_, iface := n.Type.(*ast.InterfaceType)
			_, strct := n.Type.(*ast.StructType)
			switch {
			case iface && (name == "Stage" || name == "Table"):
				out = append(out, finding{n.Pos(), "a second stage interface, " + name})
			case iface && !slices.ContainsFunc(stageMethods, func(s string) bool { return !slices.Contains(methods(n), s) }):
				out = append(out, finding{n.Pos(), name + " has core.Stage's methods: a second stage interface"})
			case strings.HasSuffix(strings.ToLower(name), "emitter"):
				out = append(out, finding{n.Pos(), "a second emitter, " + name})
			case strct && name == "base":
				out = append(out, finding{n.Pos(), "a second stage base"})
			}
		case *ast.FuncDecl:
			if n.Recv == nil && slices.Contains([]string{"Plumb", "Splice", "Unsplice"}, n.Name.Name) {
				out = append(out, finding{n.Pos(), "a second " + n.Name.Name})
			}
		case *ast.BasicLit:
			if n.Kind == token.STRING && strings.Contains(n.Value, "has no upstream") {
				out = append(out, finding{n.Pos(), "an origin taking messages only to panic"})
			}
		}
	}
	for _, p := range m.pkgs {
		if p.dir == "internal/core" {
			continue
		}
		inspect(p.files, func(_ *ast.File, n ast.Node) {
			second(n, func(ts *ast.TypeSpec) []string {
				it := p.info.Defs[ts.Name].Type().Underlying().(*types.Interface)
				var names []string
				for i := range it.NumMethods() {
					names = append(names, it.Method(i).Name())
				}
				return names
			})
		})
		inspect(p.tests, func(_ *ast.File, n ast.Node) {
			second(n, func(ts *ast.TypeSpec) []string {
				var names []string
				for _, f := range ts.Type.(*ast.InterfaceType).Methods.List {
					for _, id := range f.Names {
						names = append(names, id.Name)
					}
				}
				return names
			})
		})
	}
	return out
}

// checkFIBBatchFoldsNothing: a rib.FIBBatch is its writes in arrival
// order and kernel.FIB.Commit applies them in that order. A map reached
// from FIBBatch, FIBOp or any type fibbatch.go declares, or an op kind
// for a write that folded away (fibOpNone), is the in-batch fold coming
// back: it would need a workload that pays for it (ROADMAP 1(f)).
func checkFIBBatchFoldsNothing(m *module) (out []finding) {
	p := m.pkg("internal/rib")
	scope := p.types.Scope()
	for _, name := range []string{"FIBBatch", "FIBOp"} {
		if _, ok := scope.Lookup(name).(*types.TypeName); !ok {
			out = append(out, finding{token.NoPos, "rib declares no type " + name})
		}
	}
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if ok && path.Base(m.fset.Position(tn.Pos()).Filename) == "fibbatch.go" && reachesMap(tn.Type(), map[types.Type]bool{}) {
			out = append(out, finding{tn.Pos(), "rib." + name + " reaches a map: a batch is its writes in arrival order"})
		}
	}
	for _, p := range m.pkgs {
		inspect(append(slices.Clip(p.files), p.tests...), func(_ *ast.File, n ast.Node) {
			if id, ok := n.(*ast.Ident); ok && id.Name == "fibOpNone" {
				out = append(out, finding{id.Pos(), "an op kind for a write that folded away"})
			}
		})
	}
	return out
}

// reachesMap reports whether a value of type t holds a map: t is one, or
// a field, element or pointee reaches one.
func reachesMap(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return false
	}
	seen[t] = true
	switch t := t.(type) {
	case *types.Map:
		return true
	case *types.Named:
		return reachesMap(t.Underlying(), seen)
	case *types.Pointer:
		return reachesMap(t.Elem(), seen)
	case *types.Slice:
		return reachesMap(t.Elem(), seen)
	case *types.Array:
		return reachesMap(t.Elem(), seen)
	case *types.Struct:
		for i := range t.NumFields() {
			if reachesMap(t.Field(i).Type(), seen) {
				return true
			}
		}
	}
	return false
}

// checkCommandResolvesAsNamed: the Finder resolves a command exactly as
// the caller composed it, interface version included (paper §6.2). A
// version list a stub advertises, a Finder that picks among versions, or
// a version-mismatch error code is interface-version negotiation coming
// back: no identifier or string holds one of their names.
func checkCommandResolvesAsNamed(m *module) (out []finding) {
	names := []string{"AdvertiseVersions", "Compatible", "CompareVersions", "CodeBadVersion"}
	for _, p := range m.pkgs {
		inspect(p.files, func(_ *ast.File, n ast.Node) {
			var s string
			switch n := n.(type) {
			case *ast.Ident:
				s = n.Name
			case *ast.BasicLit:
				s = n.Value
			default:
				return
			}
			if slices.ContainsFunc(names, func(name string) bool { return strings.Contains(s, name) }) ||
				strings.Contains(strings.ToLower(s), "negotiat") {
				out = append(out, finding{n.Pos(), s + ": interface-version negotiation"})
			}
		})
	}
	return out
}

// checkNoEmptyFilterBank: a FilterBank with no filter is a stage that
// passes everything and answers every lookup by asking upstream: a hop
// each route and each decision lookup pays for nothing. Production code
// builds a bank only with its filters, however the call wraps. Test
// harnesses may build empty banks.
func checkNoEmptyFilterBank(m *module) (out []finding) {
	for _, p := range m.pkgs {
		inspect(p.files, func(_ *ast.File, n ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if ok && is(p.callee(call), "xorp/internal/bgp", "", "NewFilterBank") && len(call.Args) < 2 && !call.Ellipsis.IsValid() {
				out = append(out, finding{call.Pos(), "a filter bank with no filter"})
			}
		})
	}
	return out
}

// inspect calls fn on every node of files, with the node's file.
func inspect(files []*ast.File, fn func(f *ast.File, n ast.Node)) {
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n != nil {
				fn(f, n)
			}
			return true
		})
	}
}

// under reports whether dir is root or below it.
func under(dir, root string) bool {
	return dir == root || strings.HasPrefix(dir, root+"/")
}

// base is the name of f's file.
func (m *module) base(f *ast.File) string {
	return path.Base(m.fset.File(f.Pos()).Name())
}

// stringValue returns the value of n, a string literal or an identifier
// naming a string constant.
func (p *pkg) stringValue(n ast.Node) (string, bool) {
	switch n := n.(type) {
	case *ast.BasicLit:
		if n.Kind == token.STRING {
			s, err := strconv.Unquote(n.Value)
			return s, err == nil
		}
	case *ast.Ident:
		if c, ok := p.info.Uses[n].(*types.Const); ok && c.Val().Kind() == constant.String {
			return constant.StringVal(c.Val()), true
		}
	}
	return "", false
}

// callee returns the function or method e calls, or nil.
func (p *pkg) callee(e ast.Expr) *types.Func {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return nil
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := p.info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := p.info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// is reports whether fn is the function pkgPath.name, or with a receiver
// type recv the method pkgPath.recv.name.
func is(fn *types.Func, pkgPath, recv, name string) bool {
	return fn != nil && fn.Name() == name && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath && recvName(fn) == recv
}

// recvName is the name of fn's receiver type, "" for a function.
func recvName(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return ""
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// isMethod reports whether obj is a method.
func isMethod(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	return ok && fn.Type().(*types.Signature).Recv() != nil
}

// member reports whether obj is a field or method of the type tn names.
func member(tn, obj types.Object) bool {
	if tn == nil || obj == nil {
		return false
	}
	found, _, _ := types.LookupFieldOrMethod(tn.Type(), true, tn.Pkg(), obj.Name())
	return found == obj
}

// isBlank reports whether e is the blank identifier.
func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// imported returns the import path that e, a selector's qualifier in f,
// names, or "". f is parsed only: the qualifier is matched by name against
// f's imports, each named for its path's last element unless renamed.
func imported(f *ast.File, e ast.Expr) string {
	id, ok := e.(*ast.Ident)
	if !ok {
		return ""
	}
	for _, spec := range f.Imports {
		p, _ := strconv.Unquote(spec.Path.Value)
		name := path.Base(p)
		if spec.Name != nil {
			name = spec.Name.Name
		}
		if name == id.Name {
			return p
		}
	}
	return ""
}
