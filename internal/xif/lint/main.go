// Command lint is the xif drift gate: it fails the build when a non-test
// file outside internal/xif bypasses the typed interface layer by
// registering handlers with raw Target.Register, composing calls with
// xrl.New, naming a single-route wire method (callers hand the stubs
// runs; which XRL a run of one rides is the stub's choice), or sending
// through Router.SendArgs or Router.Compose, the stubs' own entry
// points, outside internal/xipc. Run from the module root:
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
	{regexp.MustCompile(`"(add|delete)_(route|entry)4"`), "single-route wire method (hand the xif stub a run)", nil},
	{regexp.MustCompile(`\.(SendArgs|Compose)\(`), "the stubs' send entry points (use a xif client stub)", []string{"xipc"}},
}

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
		for lineNo, line := range strings.Split(string(data), "\n") {
			for _, p := range patterns {
				if p.re.MatchString(line) && !allowed(rel, p.also) {
					fmt.Fprintf(os.Stderr, "%s:%d: %s\n\t%s\n",
						rel, lineNo+1, p.what, strings.TrimSpace(line))
					bad++
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
		fmt.Fprintf(os.Stderr, "xif lint: %d raw IPC call site(s); route them through internal/xif\n", bad)
		os.Exit(1)
	}
}
