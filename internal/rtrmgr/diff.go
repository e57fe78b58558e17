package rtrmgr

import (
	"fmt"
	"strconv"
	"strings"
)

// Configuration tree diff: the first stage of a transactional reload.
// The running and candidate trees are compared structurally; the result
// is a flat list of Changes, each naming a node by its path of idents
// and carrying the old and new subtrees. The plan compiler
// (internal/rtrmgr/txn.go) maps changes to per-process slices; the wire
// form (Encode/DecodeChange) is what travels in config/0.1 validate_tx
// calls.

// ChangeVerb says what happened to a node.
type ChangeVerb string

const (
	// ChangeAdd introduces a node absent from the running config.
	ChangeAdd ChangeVerb = "add"
	// ChangeRemove deletes a node present in the running config.
	ChangeRemove ChangeVerb = "remove"
	// ChangeModify alters a leaf's value in place.
	ChangeModify ChangeVerb = "modify"
)

// Change is one tree-diff edit. Old is nil for an add, New is nil for a
// remove; a modify carries both.
type Change struct {
	Verb ChangeVerb
	// Path is the node's identity chain from the root, e.g.
	// ["protocols", "bgp", "peer p3"].
	Path []string
	Old  *Node
	New  *Node
}

// PathString joins the path for display and planning ("/"-separated;
// idents may contain spaces and prefix slashes, so planners match on
// Path elements, not on this string).
func (c Change) PathString() string { return strings.Join(c.Path, " / ") }

// Inverse returns the change that undoes c — the rollback plan is the
// inverse of the forward plan, applied in reverse order.
func (c Change) Inverse() Change {
	inv := Change{Path: c.Path, Old: c.New, New: c.Old}
	switch c.Verb {
	case ChangeAdd:
		inv.Verb = ChangeRemove
	case ChangeRemove:
		inv.Verb = ChangeAdd
	default:
		inv.Verb = ChangeModify
	}
	return inv
}

// ident is a node's identity among its siblings. Blocks are named by
// their first argument (peer p1, policy import-bgp); leaves by their
// keyword alone when the keyword is unique, so a value change diffs as
// a modify. Repeated leaves (static routes, redistribute statements)
// are identified by their full text, so set changes diff as add/remove.
func ident(n *Node, repeated bool) string {
	if len(n.Children) > 0 {
		if a := n.Arg(0); a != "" {
			return n.Key + " " + a
		}
		return n.Key
	}
	if repeated {
		return strings.Join(append([]string{n.Key}, n.Args...), " ")
	}
	return n.Key
}

// DiffConfig computes the edits turning running into candidate.
func DiffConfig(running, candidate *Node) []Change {
	var out []Change
	diffChildren(nil, running, candidate, &out)
	return out
}

func diffChildren(path []string, a, b *Node, out *[]Change) {
	// A key is "repeated" if either side has it more than once among
	// leaves; such statements are set elements, not single-valued.
	count := make(map[string]int)
	for _, n := range append(append([]*Node{}, a.Children...), b.Children...) {
		if len(n.Children) == 0 {
			count[n.Key]++
		}
	}
	repeated := func(n *Node) bool { return len(n.Children) == 0 && count[n.Key] > 2 || leafSetKey(n) }

	aix := indexChildren(a, repeated)
	bix := indexChildren(b, repeated)

	// Removed and modified, in a's order.
	for _, an := range a.Children {
		id := ident(an, repeated(an))
		p := append(append([]string{}, path...), id)
		bn, ok := bix[id]
		if !ok {
			*out = append(*out, Change{Verb: ChangeRemove, Path: p, Old: an})
			continue
		}
		if len(an.Children) == 0 && len(bn.Children) == 0 {
			if !sameArgs(an, bn) {
				*out = append(*out, Change{Verb: ChangeModify, Path: p, Old: an, New: bn})
			}
			continue
		}
		diffChildren(p, an, bn, out)
	}
	// Added, in b's order.
	for _, bn := range b.Children {
		id := ident(bn, repeated(bn))
		if _, ok := aix[id]; !ok {
			p := append(append([]string{}, path...), id)
			*out = append(*out, Change{Verb: ChangeAdd, Path: p, New: bn})
		}
	}
}

// leafSetKey marks leaf keywords that are set elements even when they
// appear once: their args are their identity, so changing one diffs as
// remove+add rather than an ambiguous in-place modify.
func leafSetKey(n *Node) bool {
	if len(n.Children) > 0 {
		return false
	}
	switch n.Key {
	case "route", "redistribute":
		return true
	}
	return false
}

func indexChildren(n *Node, repeated func(*Node) bool) map[string]*Node {
	ix := make(map[string]*Node, len(n.Children))
	for _, c := range n.Children {
		ix[ident(c, repeated(c))] = c
	}
	return ix
}

func sameArgs(a, b *Node) bool {
	if len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if a.Args[i] != b.Args[i] {
			return false
		}
	}
	return true
}

// renderNode renders a node including its own header line (Render
// prints children only, so wrap in a synthetic parent).
func renderNode(n *Node) string {
	if n == nil {
		return ""
	}
	return Render(&Node{Children: []*Node{n}}, 0)
}

// Encode serializes a change for the config/0.1 wire: verb and path on
// header lines (each path element Go-quoted, space-separated — a quoted
// ident may hold a tab or a newline), then the new subtree
// length-prefixed, then the old subtree.
func (c Change) Encode() string {
	nb, ob := renderNode(c.New), renderNode(c.Old)
	path := make([]string, len(c.Path))
	for i, p := range c.Path {
		path[i] = strconv.Quote(p)
	}
	return fmt.Sprintf("%s\n%s\n%d\n%s%s", c.Verb, strings.Join(path, " "), len(nb), nb, ob)
}

// DecodeChange parses the wire form back into a Change. The subtrees
// round-trip through the config parser, so agents receive real Nodes.
func DecodeChange(s string) (Change, error) {
	var c Change
	verb, rest, ok := strings.Cut(s, "\n")
	if !ok {
		return c, fmt.Errorf("rtrmgr: truncated change %q", s)
	}
	switch ChangeVerb(verb) {
	case ChangeAdd, ChangeRemove, ChangeModify:
		c.Verb = ChangeVerb(verb)
	default:
		return c, fmt.Errorf("rtrmgr: unknown change verb %q", verb)
	}
	pathLine, rest, ok := strings.Cut(rest, "\n")
	if !ok {
		return c, fmt.Errorf("rtrmgr: change %q has no path", verb)
	}
	for pathLine != "" {
		q, err := strconv.QuotedPrefix(pathLine)
		if err != nil {
			return c, fmt.Errorf("rtrmgr: bad change path %q", pathLine)
		}
		elem, _ := strconv.Unquote(q) // cannot fail: QuotedPrefix vetted q
		c.Path = append(c.Path, elem)
		pathLine = strings.TrimPrefix(pathLine[len(q):], " ")
	}
	lenLine, rest, ok := strings.Cut(rest, "\n")
	if !ok {
		return c, fmt.Errorf("rtrmgr: change %q has no body length", verb)
	}
	var nlen int
	if _, err := fmt.Sscanf(lenLine, "%d", &nlen); err != nil || nlen < 0 || nlen > len(rest) {
		return c, fmt.Errorf("rtrmgr: bad body length %q", lenLine)
	}
	parseOne := func(text string) (*Node, error) {
		if text == "" {
			return nil, nil
		}
		root, err := ParseConfig(text)
		if err != nil {
			return nil, err
		}
		if len(root.Children) != 1 {
			return nil, fmt.Errorf("rtrmgr: change body holds %d nodes", len(root.Children))
		}
		return root.Children[0], nil
	}
	var err error
	if c.New, err = parseOne(rest[:nlen]); err != nil {
		return c, err
	}
	if c.Old, err = parseOne(rest[nlen:]); err != nil {
		return c, err
	}
	return c, nil
}

// EncodeChanges encodes a change slice for one validate_tx call.
func EncodeChanges(cs []Change) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.Encode()
	}
	return out
}

// DecodeChanges parses a validate_tx change slice.
func DecodeChanges(ss []string) ([]Change, error) {
	out := make([]Change, 0, len(ss))
	for _, s := range ss {
		c, err := DecodeChange(s)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}
