package xif_test

import (
	"bufio"
	"encoding/hex"
	"net/netip"
	"os"
	"strings"
	"testing"

	"xorp/internal/eventloop"
	"xorp/internal/route"
	"xorp/internal/xif"
	"xorp/internal/xipc"
	"xorp/internal/xrl"
)

// goldenRun is n routes that between them take every branch of the route
// atom: with and without a next hop and an interface name, metric 0 and
// large metrics, prefixes of several lengths.
func goldenRun(n int) []route.Entry {
	es := make([]route.Entry, n)
	for i := range es {
		e := route.Entry{
			Net:    netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 4), byte(i << 4), 0}), 20+i%5),
			Metric: uint32(i * 977),
		}
		e.Net = e.Net.Masked()
		if i%3 != 0 {
			e.NextHop = netip.AddrFrom4([4]byte{192, 0, 2, byte(i)})
		}
		if i%4 == 1 {
			e.IfName = "eth" + string(rune('0'+i%7))
		}
		es[i] = e
	}
	return es
}

// goldenFrames sends each list call through its stub to a target on the
// same router whose handlers encode what they receive as the request
// frame a byte transport would put on the wire (sequence number 1, no
// method key: the Finder's key is random).
func goldenFrames(t *testing.T) map[string][]byte {
	loop := eventloop.New(nil)
	r := xipc.NewRouter("golden", loop)
	out := make(map[string][]byte)
	var name string
	for _, s := range []*xif.Spec{xif.RIBSpec, xif.FTISpec} {
		tgt := xipc.NewTarget(map[*xif.Spec]string{xif.RIBSpec: "rib", xif.FTISpec: "fea"}[s], "golden")
		for i := range s.Methods {
			cmd, target := s.Command(s.Methods[i].Name), tgt.Name
			tgt.Register(s.Name, s.Version, s.Methods[i].Name, func(args xrl.Args) (xrl.Args, error) {
				b, err := xrl.AppendRequest(nil, &xrl.Request{Seq: 1, Target: target, Command: cmd, Args: args})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				out[name] = b
				return nil, nil
			})
		}
		r.AddTarget(tgt)
	}
	ribStub, ftiStub := xif.NewRIBClient(r, "rib"), xif.NewFTIClient(r, "fea")

	run := goldenRun(256)
	nets := make([]netip.Prefix, len(run))
	for i := range run {
		nets[i] = run[i].Net
	}
	tagged := append([]route.Entry(nil), run...)
	for i := range tagged {
		tagged[i].PolicyTags = []uint32{7, 0xfde80001, 0}
	}
	for _, c := range []struct {
		name string
		send func()
	}{
		{"add_routes4_tagged_256", func() { ribStub.AddRoutes4("ebgp", tagged, nil) }},
		{"add_routes4_256", func() { ribStub.AddRoutes4("ibgp", run, nil) }},
		{"delete_routes4_256", func() { ribStub.DeleteRoutes4("ebgp", nets, nil) }},
		{"add_entries4_256", func() { ftiStub.AddEntries4(run, nil) }},
		{"delete_entries4_256", func() { ftiStub.DeleteEntries4(nets, nil) }},
	} {
		name = c.name
		c.send()
		loop.RunPending()
		if out[name] == nil {
			t.Fatalf("%s: no call arrived", name)
		}
	}
	return out
}

// TestListFramesGolden: the list XRLs' stubs put on the wire the bytes
// they put there before, not merely bytes that decode to the same routes.
// testdata/list_frames_golden.hex was written before the list items moved
// into the call record. A case that differs prints its new hex.
func TestListFramesGolden(t *testing.T) {
	f, err := os.Open("testdata/list_frames_golden.hex")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if name, h, ok := strings.Cut(sc.Text(), " "); ok {
			want[name] = h
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	got := goldenFrames(t)
	if len(want) != len(got) {
		t.Errorf("golden file has %d cases, the test builds %d", len(want), len(got))
	}
	for name, b := range got {
		if h := hex.EncodeToString(b); h != want[name] {
			t.Errorf("%s: encoding changed (%d bytes):\n%s %s", name, len(b), name, h)
		}
	}
}
