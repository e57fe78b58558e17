package rtrmgr

import (
	"reflect"
	"slices"
	"strings"
	"testing"
)

// roundTripConfigs hold words that survive Render only quoted: printed
// bare, spaces split an argument, a brace opens a block, an empty word
// vanishes, and '#' begins a comment.
var roundTripConfigs = []struct {
	name, src string
	key       string   // of the one leaf under interfaces/eth0
	args      []string // its arguments
}{
	{"spaces", `interfaces { eth0 { description "uplink to isp"; } }`, "description", []string{"uplink to isp"}},
	{"brace", `interfaces { eth0 { description "x{y"; } }`, "description", []string{"x{y"}},
	{"empty", `interfaces { eth0 { description ""; } }`, "description", []string{""}},
	{"hash", `interfaces { eth0 { description "#b"; } }`, "description", []string{"#b"}},
	{"key", `interfaces { eth0 { "odd key;" a; } }`, "odd key;", []string{"a"}},
}

func TestConfigRoundTrip(t *testing.T) {
	for _, c := range roundTripConfigs {
		t.Run(c.name, func(t *testing.T) {
			cfg, err := ParseConfig(c.src)
			if err != nil {
				t.Fatal(err)
			}
			eth0 := cfg.Child("interfaces").Child("eth0")
			if len(eth0.Children) != 1 || eth0.Children[0].Key != c.key || !reflect.DeepEqual(eth0.Children[0].Args, c.args) {
				t.Fatalf("parsed %+v, want %s %q", eth0.Children, c.key, c.args)
			}
			text := Render(cfg, 0)
			back, err := ParseConfig(text)
			if err != nil || !reflect.DeepEqual(back, cfg) {
				t.Fatalf("Render printed\n%s\nwhich parses back as %s (%v)", text, renderNode(back), err)
			}
			// The two-phase reload's wire form renders subtrees the same way.
			ch := Change{Verb: ChangeAdd, Path: []string{"interfaces", "eth0"}, New: eth0}
			dec, err := DecodeChange(ch.Encode())
			if err != nil || !reflect.DeepEqual(dec.New, eth0) {
				t.Fatalf("change %q decodes as %+v (%v)", ch.Encode(), dec.New, err)
			}
		})
	}
}

// FuzzParseConfig holds ParseConfig and Render to each other on arbitrary
// text: nothing panics, and whatever parses renders as text that parses
// back as the same tree, every key and argument included.
func FuzzParseConfig(f *testing.F) {
	for _, src := range []string{baseConfig, toyConfig, igpTimersConfig, policyConfig,
		strings.Repeat("a {", maxConfigDepth) + strings.Repeat("}", maxConfigDepth)} {
		f.Add(src)
	}
	for _, c := range roundTripConfigs {
		f.Add(c.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		cfg, err := ParseConfig(src)
		if err != nil {
			return
		}
		text := Render(cfg, 0)
		back, err := ParseConfig(text)
		if err != nil {
			t.Fatalf("config %q renders as %q, which does not parse: %v", src, text, err)
		}
		if !reflect.DeepEqual(back, cfg) {
			t.Fatalf("config %q renders as %q, which parses as a different tree", src, text)
		}
	})
}

// FuzzChangeWire holds the reload's wire form to the diff: for any two
// configs that parse, every change DiffConfig finds between them comes
// back from DecodeChange(c.Encode()) with its verb, its path — whatever a
// quoted ident holds, tabs and newlines included — and both subtrees.
// testdata/fuzz/FuzzChangeWire holds a peer named with each.
func FuzzChangeWire(f *testing.F) {
	f.Add(baseConfig, strings.Replace(baseConfig, "local-as 65001", "local-as 65999", 1))
	f.Add(baseConfig, policyConfig)
	f.Fuzz(func(t *testing.T, running, candidate string) {
		a, err := ParseConfig(running)
		if err != nil {
			return
		}
		b, err := ParseConfig(candidate)
		if err != nil {
			return
		}
		for _, c := range DiffConfig(a, b) {
			back, err := DecodeChange(c.Encode())
			if err != nil {
				t.Fatalf("change %q does not decode: %v", c.Encode(), err)
			}
			if back.Verb != c.Verb || !slices.Equal(back.Path, c.Path) ||
				renderNode(back.Old) != renderNode(c.Old) || renderNode(back.New) != renderNode(c.New) {
				t.Fatalf("change %s %q decodes as %s %q", c.Verb, c.Path, back.Verb, back.Path)
			}
		}
	})
}
