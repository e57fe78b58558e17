package xorp

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnly names the non-test functions that no production root reaches
// but tests in another package need, each with the packages whose tests
// call it. A test in the declaring package needs no entry: the function
// moves into one of that package's _test.go files. The list only shrinks.
var testOnly = map[string]string{
	"bgp.GroupOut.AnnouncedCount":    "bgp, rtrmgr",
	"bgp.GroupOut.Members":           "bgp, rtrmgr",
	"bgp.NexthopResolver.PendingOps": "bgp, rtrmgr",
	"bgp.Peer.Handle":                "rtrmgr",
	"bgp.Process.Group":              "bgp, rtrmgr",
	"bgp.Process.ListenAddr":         "bgp, rtrmgr",
	"eventloop.Loop.PendingTasks":    "bgp, eventloop",
	"eventloop.SimClock.Advance":     "eventloop, finder",
	"kernel.Host.Unbind":             "kernel, ospf, rip",
	"kernel.Network.Detach":          "kernel, ospf, rip",
	"ospf.Process.DB":                "ospf, rtrmgr",
	"ospf.Process.RouterID":          "rtrmgr",
	"ospf.Process.Timers":            "rtrmgr",
	"rib.Process.RedistHas":          "rtrmgr",
	"rib.Process.RedistMirrored":     "rib, rtrmgr",
	"rip.Process.RouteCount":         "rtrmgr",
	"rip.Process.Timers":             "rtrmgr",
	"xipc.Router.CacheLen":           "finder",
	"xrl.Atom.Equal":                 "xif, xrl",
	"xrl.New":                        "bgp, finder, rtrmgr, telemetry, xif, xipc, xrl",
}

// TestEveryFunctionIsReached fails on each non-test function of the root
// module that no production root reaches: a caller-less function is
// deleted, or moved into the tests that use it.
//
// The roots are every main and init function, every package-level
// variable's initializer, and everything under benchmark/, the repo
// benchmark's nested module. From a reached function, every function or
// method its body names is reached. A method called through an interface
// — or on a type parameter — reaches every method of that name, and a
// method that implements an interface of the standard library is reached,
// since the library calls it where this pass cannot see (container/heap,
// fmt's String, error's Error).
func TestEveryFunctionIsReached(t *testing.T) {
	l := newLoader(t)
	l.loadTree(".")

	reached := map[*types.Func]bool{}
	byName := map[string]bool{} // method names called through an interface
	var queue []body
	reach := func(fn *types.Func) {
		fn = fn.Origin()
		if d := l.funcs[fn]; d != nil && !reached[fn] {
			reached[fn] = true
			queue = append(queue, d.body)
		}
	}
	for fn, d := range l.funcs {
		if d.root {
			reach(fn)
		}
	}
	queue = append(queue, l.vars...)
	for _, fn := range l.stdlibImplementers() {
		reach(fn)
	}
	for len(queue) > 0 {
		b := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		ast.Inspect(b.node, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := b.info.Uses[id].(*types.Func)
			if !ok {
				return true
			}
			recv := fn.Type().(*types.Signature).Recv()
			if recv == nil || !types.IsInterface(recv.Type()) {
				reach(fn)
			} else if !byName[fn.Name()] {
				byName[fn.Name()] = true
				for _, m := range l.methods[fn.Name()] {
					reach(m)
				}
			}
			return true
		})
	}

	var found []string
	seen := map[string]bool{}
	for fn, d := range l.funcs {
		if reached[fn] {
			continue
		}
		name := qualifiedName(fn)
		seen[name] = true
		if _, ok := testOnly[name]; !ok {
			pos := l.fset.Position(d.body.node.Pos())
			found = append(found, pos.Filename+":"+strconv.Itoa(pos.Line)+": "+name+" is reached by no main, init or benchmark/ code")
		}
	}
	sort.Strings(found)
	for _, f := range found {
		t.Error(f)
	}
	for name := range testOnly {
		if !seen[name] {
			t.Errorf("testOnly names %s, which is gone or reached from production: drop the entry", name)
		}
	}
}

// loader type-checks the module's packages from source, and the standard
// library through the source importer, so every package sees one object
// per declaration.
type loader struct {
	t       *testing.T
	fset    *token.FileSet
	std     types.ImporterFrom
	pkgs    map[string]*types.Package // by directory; nil while loading
	funcs   map[*types.Func]*funcDecl
	methods map[string][]*types.Func // by name
	vars    []body                   // package-level var declarations
}

// body is code to walk for the functions it names.
type body struct {
	node ast.Node
	info *types.Info
}

type funcDecl struct {
	body
	root bool // a main or init function, or one under benchmark/
}

func newLoader(t *testing.T) *loader {
	fset := token.NewFileSet()
	return &loader{
		t:       t,
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:    map[string]*types.Package{},
		funcs:   map[*types.Func]*funcDecl{},
		methods: map[string][]*types.Func{},
	}
}

func (l *loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

func (l *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if rel, ok := strings.CutPrefix(path, "xorp/"); ok {
		return l.load(filepath.FromSlash(rel)), nil
	}
	return l.std.ImportFrom(path, dir, mode)
}

// loadTree loads every package under root but dot directories, testdata
// and .github/.
func (l *loader) loadTree(root string) {
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		l.load(path)
		return nil
	})
	if err != nil {
		l.t.Fatal(err)
	}
}

// load parses and type-checks the non-test files of the package in dir,
// once, and records its functions and package-level variables.
func (l *loader) load(dir string) *types.Package {
	if p, ok := l.pkgs[dir]; ok {
		return p
	}
	l.pkgs[dir] = nil
	entries, err := os.ReadDir(dir)
	if err != nil {
		l.t.Fatal(err)
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			l.t.Fatal(err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		delete(l.pkgs, dir)
		return nil
	}
	path := "xorp"
	if dir != "." {
		path += "/" + filepath.ToSlash(dir)
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	p, err := (&types.Config{Importer: l}).Check(path, l.fset, files, info)
	if err != nil {
		l.t.Fatalf("type-checking %s: %v", dir, err)
	}
	bench := strings.HasPrefix(path, "xorp/benchmark")
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				fn := info.Defs[d.Name].(*types.Func)
				name := d.Name.Name
				l.funcs[fn] = &funcDecl{body{d, info},
					bench || d.Recv == nil && (name == "init" || name == "main" && p.Name() == "main")}
				if d.Recv != nil {
					l.methods[name] = append(l.methods[name], fn)
				}
			case *ast.GenDecl:
				if d.Tok == token.VAR {
					l.vars = append(l.vars, body{d, info})
				}
			}
		}
	}
	l.pkgs[dir] = p
	return p
}

// stdlibImplementers returns the root-module methods through which a
// standard-library interface may be called: the method belongs to one of
// the interface's methods, and its type, or a pointer to it, implements
// the interface.
func (l *loader) stdlibImplementers() []*types.Func {
	ifaces := map[string][]*types.Interface{} // by method name
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, imp := range p.Imports() {
			walk(imp)
		}
		if strings.HasPrefix(p.Path(), "xorp") {
			return
		}
		scope := p.Scope()
		for _, n := range scope.Names() {
			tn, ok := scope.Lookup(n).(*types.TypeName)
			if !ok || !tn.Exported() {
				continue
			}
			it, ok := tn.Type().Underlying().(*types.Interface)
			if !ok || it.NumMethods() == 0 {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				ifaces[it.Method(i).Name()] = append(ifaces[it.Method(i).Name()], it)
			}
		}
	}
	errIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	ifaces["Error"] = append(ifaces["Error"], errIface)
	for _, p := range l.pkgs {
		walk(p)
	}
	var out []*types.Func
	for name, ms := range l.methods {
		for _, m := range ms {
			recv := m.Type().(*types.Signature).Recv().Type()
			if ptr, ok := recv.(*types.Pointer); ok {
				recv = ptr.Elem()
			}
			named, ok := recv.(*types.Named)
			if !ok || named.TypeParams().Len() > 0 {
				continue
			}
			for _, it := range ifaces[name] {
				if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
					out = append(out, m)
					break
				}
			}
		}
	}
	return out
}

// qualifiedName is pkg.Func or pkg.Type.Method, pkg the package's name.
func qualifiedName(fn *types.Func) string {
	name := fn.Pkg().Name() + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			name += named.Obj().Name() + "."
		}
	}
	return name + fn.Name()
}
