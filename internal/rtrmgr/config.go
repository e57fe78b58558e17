// Package rtrmgr implements the XORP Router Manager (paper §3): it holds
// the router configuration, starts and wires the other processes — the
// Finder, the FEA, the RIB, and one process for every class of its module
// table (modules.go) that the configuration names — and hides the
// router's internal structure behind a unified configuration interface.
package rtrmgr

import (
	"fmt"
	"net/netip"
	"strings"
	"unicode"
)

// Node is one node of the parsed configuration tree: a keyword, optional
// value words, and an optional block of children.
type Node struct {
	Key      string
	Args     []string
	Children []*Node
}

// Child returns the first child with the given key.
func (n *Node) Child(key string) *Node {
	for _, c := range n.Children {
		if c.Key == key {
			return c
		}
	}
	return nil
}

// ChildrenNamed returns all children with the given key.
func (n *Node) ChildrenNamed(key string) []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.Key == key {
			out = append(out, c)
		}
	}
	return out
}

// Arg returns the i'th argument ("" if absent).
func (n *Node) Arg(i int) string {
	if i < len(n.Args) {
		return n.Args[i]
	}
	return ""
}

// Leaf returns the first argument of the named child ("" if absent).
func (n *Node) Leaf(key string) string {
	if c := n.Child(key); c != nil {
		return c.Arg(0)
	}
	return ""
}

// LeafAddr parses the named child as an address.
func (n *Node) LeafAddr(key string) (netip.Addr, error) {
	s := n.Leaf(key)
	if s == "" {
		return netip.Addr{}, fmt.Errorf("rtrmgr: missing %q under %q", key, n.Key)
	}
	return netip.ParseAddr(s)
}

// ParseConfig parses the brace-structured configuration text into a root
// node (Key = "root").
func ParseConfig(src string) (*Node, error) {
	toks, err := tokenize(src)
	if err != nil {
		return nil, err
	}
	root := &Node{Key: "root"}
	rest, err := parseBlock(toks, root, 0)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("rtrmgr: unexpected %q after configuration", rest[0])
	}
	return root, nil
}

// tokenize splits into words, quoted strings, '{', '}' and ';'
// separators; '#' comments run to end of line. Newlines terminate
// statements like ';' does, so both styles parse.
func tokenize(src string) ([]string, error) {
	var toks []string
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == '#':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == '\n':
			toks = append(toks, ";")
			i++
		case unicode.IsSpace(rune(c)):
			i++
		case c == '{' || c == '}' || c == ';':
			toks = append(toks, string(c))
			i++
		case c == '"':
			j := i + 1
			for j < len(src) && src[j] != '"' {
				j++
			}
			if j >= len(src) {
				return nil, fmt.Errorf("rtrmgr: unterminated string")
			}
			toks = append(toks, src[i+1:j])
			i = j + 1
		default:
			j := i
			for j < len(src) && !endsWord(src[j]) {
				j++
			}
			toks = append(toks, src[i:j])
			i = j
		}
	}
	return toks, nil
}

// endsWord reports whether c ends a bare word: whitespace (a byte read as
// a rune, as tokenize reads it), a separator, or a comment.
func endsWord(c byte) bool {
	return unicode.IsSpace(rune(c)) || c == '{' || c == '}' || c == ';' || c == '#'
}

// maxConfigDepth bounds how deep blocks may nest. Real configurations nest
// a handful deep; without a bound, text of nothing but "a {" would recurse
// parseBlock once per brace.
const maxConfigDepth = 32

// parseBlock consumes statements until the block's closing '}' (or end of
// input at depth 0).
func parseBlock(toks []string, parent *Node, depth int) ([]string, error) {
	if depth > maxConfigDepth {
		return nil, fmt.Errorf("rtrmgr: blocks nested deeper than %d", maxConfigDepth)
	}
	for len(toks) > 0 {
		switch toks[0] {
		case "}":
			if depth == 0 {
				return nil, fmt.Errorf("rtrmgr: unmatched '}'")
			}
			return toks[1:], nil
		case ";":
			toks = toks[1:]
			continue
		case "{":
			return nil, fmt.Errorf("rtrmgr: unexpected '{'")
		}
		// A statement: key [args...] (';'/newline | '{' block '}').
		node := &Node{Key: toks[0]}
		toks = toks[1:]
		for len(toks) > 0 && toks[0] != "{" && toks[0] != "}" && toks[0] != ";" {
			node.Args = append(node.Args, toks[0])
			toks = toks[1:]
		}
		if len(toks) > 0 && toks[0] == "{" {
			// Skip statement separators immediately after '{'.
			var err error
			toks, err = parseBlock(toks[1:], node, depth+1)
			if err != nil {
				return nil, err
			}
		} else if len(toks) > 0 && toks[0] == ";" {
			toks = toks[1:]
		}
		parent.Children = append(parent.Children, node)
	}
	if depth != 0 {
		return nil, fmt.Errorf("rtrmgr: missing '}' (unclosed %q)", parent.Key)
	}
	return toks, nil
}

// Render prints a node tree back as configuration text (show-config),
// which ParseConfig reads back as the same tree.
func Render(n *Node, indent int) string {
	var sb strings.Builder
	pad := strings.Repeat("    ", indent)
	for _, c := range n.Children {
		sb.WriteString(pad)
		writeWord(&sb, c.Key)
		for _, a := range c.Args {
			sb.WriteByte(' ')
			writeWord(&sb, a)
		}
		if len(c.Children) > 0 {
			sb.WriteString(" {\n")
			sb.WriteString(Render(c, indent+1))
			sb.WriteString(pad)
			sb.WriteString("}\n")
		} else {
			sb.WriteString(";\n")
		}
	}
	return sb.String()
}

// writeWord writes a key or argument so that tokenize reads it back as one
// word: quoted when it is empty or holds a byte that would end a bare
// word. No word that needs quoting holds '"' — a bare word cannot hold
// what would end it, nor a quoted one a '"' — so quoting needs no escapes.
func writeWord(sb *strings.Builder, s string) {
	quote := s == ""
	for i := 0; i < len(s) && !quote; i++ {
		quote = endsWord(s[i])
	}
	if !quote {
		sb.WriteString(s)
		return
	}
	sb.WriteByte('"')
	sb.WriteString(s)
	sb.WriteByte('"')
}
