package xorp

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"maps"
	"os"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
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
// deleted, or moved into the tests that use it. It shows it can fail: a
// function planted in a main with no caller, and a testOnly name that
// names nothing, must both be reported.
func TestEveryFunctionIsReached(t *testing.T) {
	m := loadModule(t)
	for _, e := range unreached(m, testOnly) {
		t.Error(e)
	}

	v, _ := m.plant(t, "cmd/xorp_finder", "planted.go", "package main\n\nfunc planted() {}\n")
	stale := maps.Clone(testOnly)
	stale["xorp.Gone"] = "xorp"
	got := strings.Join(unreached(v, stale), "\n")
	for _, want := range []string{"main.planted is reached by no", "testOnly names xorp.Gone"} {
		if !strings.Contains(got, want) {
			t.Errorf("planted a violation the reach check must report as %q; it reported:\n%s", want, got)
		}
	}
}

// unreached returns, at file:line, each non-test function of m that no
// production root reaches and testOnly does not name, and each testOnly
// name that is gone or reached.
//
// The roots are every main and init function, every package-level
// variable's initializer, and everything under benchmark/, the repo
// benchmark's nested module. From a reached function, every function or
// method its body names is reached. A method called through an interface
// — or on a type parameter — reaches every method of that name, and a
// method that implements an interface of the standard library is reached,
// since the library calls it where this pass cannot see (container/heap,
// fmt's String, error's Error).
func unreached(m *module, testOnly map[string]string) []string {
	funcs := map[*types.Func]*funcDecl{}
	methods := map[string][]*types.Func{} // by name
	var vars []body                       // package-level var declarations
	for _, p := range m.pkgs {
		bench := p.dir == "benchmark" || strings.HasPrefix(p.dir, "benchmark/")
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn := p.info.Defs[d.Name].(*types.Func)
					name := d.Name.Name
					funcs[fn] = &funcDecl{body{d, p.info},
						bench || d.Recv == nil && (name == "init" || name == "main" && p.types.Name() == "main")}
					if d.Recv != nil {
						methods[name] = append(methods[name], fn)
					}
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						vars = append(vars, body{d, p.info})
					}
				}
			}
		}
	}

	reached := map[*types.Func]bool{}
	byName := map[string]bool{} // method names called through an interface
	var queue []body
	reach := func(fn *types.Func) {
		fn = fn.Origin()
		if d := funcs[fn]; d != nil && !reached[fn] {
			reached[fn] = true
			queue = append(queue, d.body)
		}
	}
	for fn, d := range funcs {
		if d.root {
			reach(fn)
		}
	}
	queue = append(queue, vars...)
	for _, fn := range stdlibImplementers(m, methods) {
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
				for _, mt := range methods[fn.Name()] {
					reach(mt)
				}
			}
			return true
		})
	}

	var found []string
	seen := map[string]bool{}
	for fn, d := range funcs {
		if reached[fn] {
			continue
		}
		name := qualifiedName(fn)
		seen[name] = true
		if _, ok := testOnly[name]; !ok {
			pos := m.fset.Position(d.body.node.Pos())
			found = append(found, pos.Filename+":"+strconv.Itoa(pos.Line)+": "+name+" is reached by no main, init or benchmark/ code")
		}
	}
	sort.Strings(found)
	for _, name := range slices.Sorted(maps.Keys(testOnly)) {
		if !seen[name] {
			found = append(found, "testOnly names "+name+", which is gone or reached from production: drop the entry")
		}
	}
	return found
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

// stdlibImplementers returns the methods through which a standard-library
// interface may be called: the method belongs to one of the interface's
// methods, and its type, or a pointer to it, implements the interface.
func stdlibImplementers(m *module, methods map[string][]*types.Func) []*types.Func {
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
	for _, p := range m.pkgs {
		if p.types != nil {
			walk(p.types)
		}
	}
	var out []*types.Func
	for name, ms := range methods {
		for _, mt := range ms {
			recv := mt.Type().(*types.Signature).Recv().Type()
			if ptr, ok := recv.(*types.Pointer); ok {
				recv = ptr.Elem()
			}
			named, ok := recv.(*types.Named)
			if !ok || named.TypeParams().Len() > 0 {
				continue
			}
			for _, it := range ifaces[name] {
				if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
					out = append(out, mt)
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

// module is the root module, from source: each package's non-test files
// type-checked, its _test.go files parsed only. The reach test and the
// architecture rules (arch_test.go) read the same one.
type module struct {
	fset *token.FileSet
	imp  *loader
	pkgs []*pkg // in directory order
}

// pkg is one package directory of the module.
type pkg struct {
	dir   string // slash-separated, from the module root
	types *types.Package
	info  *types.Info
	files []*ast.File // non-test, type-checked
	tests []*ast.File // _test.go, parsed only
}

var (
	moduleOnce sync.Once
	moduleVal  *module
	moduleErr  error
)

// loadModule returns the module, loaded once per test binary.
func loadModule(t *testing.T) *module {
	t.Helper()
	moduleOnce.Do(func() { moduleVal, moduleErr = loadTree(".") })
	if moduleErr != nil {
		t.Fatal(moduleErr)
	}
	return moduleVal
}

// loadTree loads every package under root but dot directories, testdata
// and .github/.
func loadTree(root string) (*module, error) {
	fset := token.NewFileSet()
	l := &loader{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs: map[string]*pkg{},
	}
	m := &module{fset: fset, imp: l}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		p, err := l.load(filepath.ToSlash(path))
		if p != nil {
			m.pkgs = append(m.pkgs, p)
		}
		return err
	})
	return m, err
}

// pkg returns the package in dir, or nil.
func (m *module) pkg(dir string) *pkg {
	if i := slices.IndexFunc(m.pkgs, func(p *pkg) bool { return p.dir == dir }); i >= 0 {
		return m.pkgs[i]
	}
	return nil
}

// plant returns a copy of m whose package in dir holds one more file,
// name, with the source src, and that file. A _test.go file is parsed
// only, as the module's tests are; any other is type-checked with the
// package. m itself does not change.
func (m *module) plant(t *testing.T, dir, name, src string) (*module, *token.File) {
	t.Helper()
	i := slices.IndexFunc(m.pkgs, func(p *pkg) bool { return p.dir == dir })
	if i < 0 {
		t.Fatalf("plant: no package in %s", dir)
	}
	f, err := parser.ParseFile(m.fset, path.Join(dir, name), src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("plant: %v", err)
	}
	p := *m.pkgs[i]
	if strings.HasSuffix(name, "_test.go") {
		p.tests = append(slices.Clip(p.tests), f)
	} else {
		p.files = append(slices.Clip(p.files), f)
		if err := m.imp.check(&p); err != nil {
			t.Fatalf("plant: %v", err)
		}
	}
	v := *m
	v.pkgs = slices.Clone(m.pkgs)
	v.pkgs[i] = &p
	return &v, m.fset.File(f.Pos())
}

// loader type-checks the module's packages from source, and the standard
// library through the source importer, so every package sees one object
// per declaration.
type loader struct {
	fset *token.FileSet
	std  types.ImporterFrom
	pkgs map[string]*pkg // by directory; nil while loading
}

func (l *loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

func (l *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	rel, ok := strings.CutPrefix(path, "xorp/")
	if !ok {
		return l.std.ImportFrom(path, dir, mode)
	}
	p, err := l.load(rel)
	if err == nil && (p == nil || p.types == nil) {
		err = fmt.Errorf("no package %s", path)
	}
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

// load parses the package in dir, once, and type-checks its non-test
// files. It returns nil for a directory with no Go files.
func (l *loader) load(dir string) (*pkg, error) {
	if p, ok := l.pkgs[dir]; ok {
		return p, nil
	}
	l.pkgs[dir] = nil
	entries, err := os.ReadDir(filepath.FromSlash(dir))
	if err != nil {
		return nil, err
	}
	p := &pkg{dir: dir}
	for _, e := range entries {
		name := e.Name()
		test := strings.HasSuffix(name, "_test.go")
		// The root package's tests are the checks and their planted
		// violations.
		if e.IsDir() || !strings.HasSuffix(name, ".go") || test && dir == "." {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, path.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if test {
			p.tests = append(p.tests, f)
		} else {
			p.files = append(p.files, f)
		}
	}
	if len(p.files)+len(p.tests) == 0 {
		delete(l.pkgs, dir)
		return nil, nil
	}
	if len(p.files) > 0 {
		if err := l.check(p); err != nil {
			return nil, err
		}
	}
	l.pkgs[dir] = p
	return p, nil
}

// check type-checks p's non-test files.
func (l *loader) check(p *pkg) error {
	importPath := "xorp"
	if p.dir != "." {
		importPath += "/" + p.dir
	}
	p.info = &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	var err error
	p.types, err = (&types.Config{Importer: l}).Check(importPath, l.fset, p.files, p.info)
	if err != nil {
		return fmt.Errorf("type-checking %s: %v", p.dir, err)
	}
	return nil
}
