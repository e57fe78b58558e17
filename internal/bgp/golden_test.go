package bgp

import (
	"bufio"
	"encoding/hex"
	"net/netip"
	"os"
	"strings"
	"testing"
)

// goldenUpdates builds the encodings testdata/update_golden.hex pins, one per
// encoder branch whose bytes a refactor could move without a round trip
// noticing: the 4,096-byte split, the extended attribute length (at exactly
// 256 and past it), MP_REACH and MP_UNREACH beside the classic fields, every
// optional attribute, and a path with a set after its sequence.
func goldenUpdates(t *testing.T) map[string][]byte {
	full := fullAttrs()
	// 64 communities: a 256-byte body, the first that needs the extended length.
	wide := *full
	wide.Communities = make([]uint32, 64)
	for i := range wide.Communities {
		wide.Communities[i] = 0xfde80000 | uint32(i)
	}
	v6 := attrsVia("2001:db8::1", 65001, 65002)
	var v4run, v6run, mixed []netip.Prefix
	for i := 0; i < 1200; i++ { // 4 bytes each: three messages
		v4run = append(v4run, netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24))
	}
	for i := 0; i < 40; i++ { // 9 bytes each: a 381-byte MP_REACH body
		v6run = append(v6run, netip.PrefixFrom(netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 0, byte(i), 0xab, 0xcd}), 64))
	}
	for i := 0; i < 6; i++ {
		mixed = append(mixed, mustP("192.0.2.0/24"), v6run[i], netip.PrefixFrom(netip.AddrFrom4([4]byte{172, 16, byte(i), 0}), 23))
	}
	out := make(map[string][]byte)
	add := func(name string) func([]byte, error) {
		return func(b []byte, err error) {
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			out[name] = b
		}
	}
	add("v4_run_split")(AppendUpdateRun(nil, full, v4run))
	add("v6_run_extended")(AppendUpdateRun(nil, v6, v6run))
	add("mixed_run")(AppendUpdateRun(nil, attrsVia("10.0.0.1", 65001), mixed))
	add("v6_reach_256")(AppendUpdateRun(nil, v6, append(v6run[:26:26], mustP("::/0"))))
	add("one_prefix_run")(AppendUpdateRun(nil, testAttrs(), v4run[:1]))
	add("withdraw_mixed")(AppendUpdate(nil, &UpdateMsg{Withdrawn: mixed}))
	add("all_attributes")(AppendUpdate(nil, &UpdateMsg{Attrs: full, NLRI: mixed[:1], Withdrawn: v4run[:2]}))
	add("communities_256")(AppendUpdate(nil, &UpdateMsg{Attrs: &wide, NLRI: v4run[:3]}))
	add("set_after_sequence")(AppendUpdate(nil, &UpdateMsg{Attrs: &PathAttrs{
		ASPath:  ASPath{{Type: SegSequence, ASes: []uint16{1, 2}}, {Type: SegSet, ASes: []uint16{3, 4, 5}}},
		NextHop: mustA("192.0.2.1"),
	}, NLRI: v4run[:1]}))
	return out
}

// TestUpdateGolden: the bytes the encoder puts on the wire are the bytes it
// put there before, not merely bytes that decode to the same thing. A case
// that differs prints its new hex.
func TestUpdateGolden(t *testing.T) {
	f, err := os.Open("testdata/update_golden.hex")
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
	got := goldenUpdates(t)
	if len(want) != len(got) {
		t.Errorf("golden file has %d cases, the test builds %d", len(want), len(got))
	}
	for name, b := range got {
		if h := hex.EncodeToString(b); h != want[name] {
			t.Errorf("%s: encoding changed (%d bytes):\n%s %s", name, len(b), name, h)
		}
	}
}
