// Command lint is the xif drift gate: it fails the build when a non-test
// file outside internal/xif bypasses the typed interface layer by
// registering handlers with raw Target.Register, composing calls with
// xrl.New, naming a per-route wire method (redist4/0.1's add_route4 and
// delete_route4 are the stub's to send; routes reach the RIB and the FEA
// only as runs, in the list XRLs), or sending through Router.SendArgs or
// Router.Compose, the stubs' own entry points, outside internal/xipc.
// Inside internal/xif it holds the other half: a call's arguments and a
// reply's atoms are checked against the Spec once, where they arrive, and
// read through the reader, whose reads cannot fail — so an xrl.Args
// getter that can fail, or a read that drops its error, belongs to the
// reader's file alone. Run from the module root:
//
//	go run ./internal/xif/lint
//
// CI runs it on every push; a hit means the new call site should be a
// Spec method plus a Bind/stub in internal/xif instead.
package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// Raw-IPC patterns, each with the packages besides internal/xif that may
// use it. `.Register("` requires a string-literal first argument, which
// distinguishes xipc's Target.Register(iface, ...) from unrelated
// Register() methods (e.g. rib.Process.Register()).
var patterns = []struct {
	re   *regexp.Regexp
	what string
	also []string
}{
	{regexp.MustCompile(`xrl\.New\(`), "hand-built XRL (use a xif client stub or Spec.NewXRL)", nil},
	{regexp.MustCompile(`\.Register\("`), "raw Target.Register (use a xif Bind)", nil},
	{regexp.MustCompile(`"(add|delete)_(route|entry)4"`), "per-route wire method (use the xif stub)", nil},
	{regexp.MustCompile(`\.(SendArgs|Compose)\(`), "the stubs' send entry points (use a xif client stub)", []string{"xipc"}},
}

// Checked-read patterns: they hold in the non-test files of internal/xif
// but readerFile.
var readPatterns = []struct {
	re   *regexp.Regexp
	what string
}{
	{regexp.MustCompile(`\.(\w+Arg|Optional)\(`),
		"an xrl.Args getter that can fail (read the checked atoms through the reader)"},
	{regexp.MustCompile(`, _ :?= .*\.Get\(`),
		"a lookup that drops whether the atom is there (read the checked atoms through the reader)"},
}

var (
	xifDir     = filepath.Join("internal", "xif") + string(filepath.Separator)
	readerFile = filepath.Join("internal", "xif", "reader.go")
)

// allowed reports whether path may use raw IPC primitives: the xif layer
// itself, the packages a pattern names (also), and tests (which pin wire
// formats and drive edge cases the typed surface forbids).
func allowed(path string, also []string) bool {
	if strings.HasSuffix(path, "_test.go") {
		return true
	}
	for _, pkg := range append([]string{"xif"}, also...) {
		if strings.HasPrefix(path, filepath.Join("internal", pkg)+string(filepath.Separator)) {
			return true
		}
	}
	return false
}

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	bad := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if name == ".git" || name == "vendor" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		rel, rerr := filepath.Rel(root, path)
		if rerr != nil {
			rel = path
		}
		data, rerr := os.ReadFile(path)
		if rerr != nil {
			return rerr
		}
		reads := strings.HasPrefix(rel, xifDir) && !strings.HasSuffix(rel, "_test.go") && rel != readerFile
		for lineNo, line := range strings.Split(string(data), "\n") {
			report := func(what string) {
				fmt.Fprintf(os.Stderr, "%s:%d: %s\n\t%s\n", rel, lineNo+1, what, strings.TrimSpace(line))
				bad++
			}
			for _, p := range patterns {
				if p.re.MatchString(line) && !allowed(rel, p.also) {
					report(p.what)
				}
			}
			for _, p := range readPatterns {
				if reads && p.re.MatchString(line) {
					report(p.what)
				}
			}
		}
		return nil
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "xif lint: %v\n", err)
		os.Exit(2)
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "xif lint: %d raw IPC call site(s) or unchecked read(s); route them through internal/xif and its reader\n", bad)
		os.Exit(1)
	}
}
