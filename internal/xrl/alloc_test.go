package xrl

import (
	"net/netip"
	"testing"
)

// Allocation-regression tests for the codec fast path: an encode/decode
// round-trip of a flat request or reply must be allocation-free once the
// intern table has seen the strings and the caller reuses its buffers
// (exactly what the transports do via GetBuf/PutBuf and ParseRequest /
// ParseReply into retained structs).

func fastPathRequest() *Request {
	return &Request{
		Seq:     7,
		Target:  "fig9echo",
		Command: "bench/1.0/sink",
		Key:     "k0123456789abcdef",
		Args: Args{
			U32("a0", 0),
			U32("a1", 1),
			Bool("flag", true),
			IPv4("nh", netip.MustParseAddr("192.0.2.1")),
			Net("net", netip.MustParsePrefix("10.0.0.0/8")),
		},
	}
}

func TestAppendParseRequestZeroAlloc(t *testing.T) {
	req := fastPathRequest()
	buf := make([]byte, 0, 512)
	var dec Request
	var err error

	run := func() {
		buf, err = AppendRequest(buf[:0], req)
		if err == nil {
			err = ParseRequest(buf, &dec)
		}
	}
	run() // warm the intern table and dec.Args capacity
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, run)
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("request round-trip allocates %.1f objects per op, want 0", allocs)
	}
	if dec.Command != req.Command || len(dec.Args) != len(req.Args) {
		t.Fatalf("decode mismatch: %+v", dec)
	}
	for i := range req.Args {
		if !dec.Args[i].Equal(req.Args[i]) {
			t.Fatalf("arg %d decoded as %v, want %v", i, dec.Args[i], req.Args[i])
		}
	}
}

func TestAppendParseReplyZeroAlloc(t *testing.T) {
	rep := &Reply{
		Seq:  9,
		Code: CodeOkay,
		Args: Args{U32("sum", 42), Bool("ok", true)},
	}
	buf := make([]byte, 0, 512)
	var dec Reply
	var err error

	run := func() {
		buf, err = AppendReply(buf[:0], rep)
		if err == nil {
			err = ParseReply(buf, &dec)
		}
	}
	run()
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, run)
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("reply round-trip allocates %.1f objects per op, want 0", allocs)
	}
	if v, aerr := dec.Args.U32Arg("sum"); aerr != nil || v != 42 {
		t.Fatalf("decode mismatch: %+v (%v)", dec, aerr)
	}
}

// TestGetPutBufReuse pins the pooled-buffer contract: a Get/encode/Put
// cycle performs no steady-state allocations.
func TestGetPutBufReuse(t *testing.T) {
	req := fastPathRequest()
	// Warm the pool with a buffer large enough for the frame.
	bp := GetBuf()
	b, err := AppendRequest(*bp, req)
	if err != nil {
		t.Fatal(err)
	}
	*bp = b
	PutBuf(bp)

	allocs := testing.AllocsPerRun(200, func() {
		bp := GetBuf()
		b, _ := AppendRequest(*bp, req)
		*bp = b
		PutBuf(bp)
	})
	if allocs != 0 {
		t.Fatalf("pooled encode allocates %.1f objects per op, want 0", allocs)
	}
}

// TestInternBounded verifies the intern table cannot be grown without
// bound by hostile traffic: oversized strings are never interned.
func TestInternBounded(t *testing.T) {
	long := make([]byte, maxInternLen+1)
	for i := range long {
		long[i] = 'x'
	}
	if got := internBytes(long); got != string(long) {
		t.Fatalf("oversized intern returned %q", got)
	}
	internMu.RLock()
	_, cached := internTab[string(long)]
	internMu.RUnlock()
	if cached {
		t.Fatal("oversized string entered the intern table")
	}
}

// TestInternFlushOnChurn verifies that key churn (e.g. components
// re-registering with fresh random method keys) cannot saturate the
// table and permanently disable interning: once full it flushes and the
// live working set re-enters.
func TestInternFlushOnChurn(t *testing.T) {
	for i := 0; i < maxInternEntries+10; i++ {
		Intern("churn-" + string(rune('a'+i%26)) + "-" + itoa(i))
	}
	internMu.RLock()
	size := len(internTab)
	internMu.RUnlock()
	if size > maxInternEntries {
		t.Fatalf("intern table grew to %d entries, cap is %d", size, maxInternEntries)
	}
	// A fresh live string must still intern after the churn.
	s := Intern("post-churn-live")
	if got := internBytes([]byte("post-churn-live")); got != s {
		t.Fatal("interning disabled after churn")
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	n := len(b)
	for i > 0 {
		n--
		b[n] = byte('0' + i%10)
		i /= 10
	}
	return string(b[n:])
}

// listRequest is an add_entries4-shaped request carrying n route atoms
// (a txt value, add_routes4's protocol, is copied out of every frame).
func listRequest(n int) *Request {
	items := make([]Atom, n)
	for i := range items {
		items[i] = Route("", netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24),
			netip.AddrFrom4([4]byte{192, 0, 2, byte(i)}), uint32(i), "eth0")
	}
	return &Request{Seq: 7, Target: "fea", Command: "fti/0.2/add_entries4",
		Args: Args{U32("tx", 1), List("entries", items...)}}
}

// A steady stream of list XRLs decoded into one Request, as a TCP
// connection decodes them, allocates nothing for its items: each list is
// decoded over the storage the same argument held in the previous frame,
// whether the list grows back to a width it had, shrinks or empties. A
// list wider than MaxKeptItems gets storage of its own, which the next
// frame drops.
func TestParseListRequestZeroAlloc(t *testing.T) {
	var frames [][]byte
	for _, n := range []int{256, 100, 0, 256, 3} {
		b, err := AppendRequest(nil, listRequest(n))
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, b)
	}
	var dec Request
	run := func() {
		for _, b := range frames {
			if err := ParseRequest(b, &dec); err != nil {
				t.Fatal(err)
			}
		}
	}
	run() // warm the intern table and the storage
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("a stream of list requests allocates %.1f objects per %d frames, want 0", allocs, len(frames))
	}
	want := listRequest(3)
	for i := range want.Args {
		if !dec.Args[i].Equal(want.Args[i]) {
			t.Fatalf("arg %d decoded as %v, want %v", i, dec.Args[i], want.Args[i])
		}
	}

	wide, err := AppendRequest(nil, listRequest(MaxKeptItems+1))
	if err != nil {
		t.Fatal(err)
	}
	if err := ParseRequest(wide, &dec); err != nil {
		t.Fatal(err)
	}
	if err := ParseRequest(frames[0], &dec); err != nil {
		t.Fatal(err)
	}
	if n := cap(dec.Args[1].ListVal); n > MaxKeptItems {
		t.Fatalf("after a %d-item list, the next frame's list keeps storage for %d items, want at most %d",
			MaxKeptItems+1, n, MaxKeptItems)
	}
}
