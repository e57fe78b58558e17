package xipc

import (
	"net/netip"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"xorp/internal/xrl"
)

// Tests of who owns an XRL's arguments (call.go): SendArgs and Send copy
// them into the call record, a list's items included, which keeps them
// until the call is answered and then zeroes them.

// argsAt builds the four arguments of call i.
func argsAt(i int) [4]xrl.Atom {
	return [4]xrl.Atom{
		xrl.U32("i", uint32(i)),
		xrl.Text("name", "call"+string(rune('a'+i%26))),
		xrl.Net("network", netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i), 0, 0}), 16)),
		xrl.List("items", xrl.U32("", uint32(i))),
	}
}

// overwrite writes call i's arguments over args, and its list's items
// over the items args' list holds.
func overwrite(args []xrl.Atom, i int) {
	over := argsAt(i)
	copy(args[3].ListVal, over[3].ListVal)
	copy(args, over[:])
}

func sameArgs(t *testing.T, what string, got xrl.Args, want []xrl.Atom) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d atoms %v, want %v", what, len(got), got, want)
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("%s: atom %d is %v, want %v", what, i, got[i], want[i])
		}
	}
}

// keep copies args as a handler must to keep them: the slice, and the
// items of every list in it.
func keep(args xrl.Args) xrl.Args {
	out := append(xrl.Args(nil), args...)
	for i := range out {
		if out[i].Type == xrl.TypeList {
			out[i].ListVal = keep(out[i].ListVal)
		}
	}
	return out
}

// echoTarget answers test/1.0/echo with a copy of its arguments, kept by
// value as a handler must.
func echoTarget(name string) *Target {
	t := NewTarget(name, name)
	t.Register("test", "1.0", "echo", func(args xrl.Args) (xrl.Args, error) {
		return keep(args), nil
	})
	return t
}

// The caller overwrites its buffer as soon as the send returns; the
// handler, which runs later on the loop, still sees what was sent.
func TestSendCopiesCallerArgs(t *testing.T) {
	loop, hub := simLoop(), NewHub()
	newStubFinder(loop, hub, func(string, string) (xrl.Args, error) {
		return resolution("far", "", xrl.ProtoIntra+"|"+hub.id), nil
	})
	far := NewRouter("far_process", loop)
	far.AddTarget(echoTarget("far"))
	far.AttachHub(hub)
	r := NewRouter("sender", loop)
	r.AddTarget(echoTarget("near"))
	r.AttachHub(hub)

	for _, target := range []string{"near", "far"} { // a local target, and one over the hub
		for _, how := range []string{"SendArgs", "Send"} {
			var got []xrl.Args
			cb := func(args xrl.Args, err *xrl.Error) {
				if err != nil {
					t.Fatalf("%s to %s: %v", how, target, err)
				}
				got = append(got, args)
			}
			for i := 0; i < 3; i++ {
				buf := argsAt(i)
				args := buf[:]
				x := xrl.New(target, "test", "1.0", "echo")
				if how == "Send" {
					x.Args = args
					r.Send(x, cb)
				} else {
					r.SendArgs(x, args, cb, false)
				}
				overwrite(args, 100+i)
			}
			loop.RunPending()
			if len(got) != 3 {
				t.Fatalf("%s to %s: %d replies, want 3", how, target, len(got))
			}
			for i, args := range got {
				want := argsAt(i)
				sameArgs(t, how+" to "+target, args, want[:])
			}
		}
	}
}

// A local target's handler that sends an XRL while it still reads its own
// arguments finds them intact: its record is not released, and so cannot
// carry the nested call, until the handler returns.
func TestLocalHandlerSendKeepsItsArgs(t *testing.T) {
	loop := simLoop()
	r := NewRouter("self_process", loop)
	tgt := echoTarget("self")
	inner := 0
	tgt.Register("test", "1.0", "inner", func(xrl.Args) (xrl.Args, error) { inner++; return nil, nil })
	var seen xrl.Args
	tgt.Register("test", "1.0", "outer", func(args xrl.Args) (xrl.Args, error) {
		for i := 0; i < 3; i++ {
			nested := argsAt(50 + i)
			r.SendArgs(xrl.New("self", "test", "1.0", "inner"), nested[:], nil, false)
		}
		seen = keep(args)
		return nil, nil
	})
	r.AddTarget(tgt)

	for i := 0; i < 3; i++ {
		buf := argsAt(i)
		r.SendArgs(xrl.New("self", "test", "1.0", "outer"), buf[:], nil, false)
		loop.RunPending()
		sameArgs(t, "the outer handler's args after its nested sends", seen, buf[:])
	}
	if inner != 9 {
		t.Fatalf("%d nested calls handled, want 9", inner)
	}
}

// An idempotent call that backs off is sent again with the arguments it
// was first sent with, whatever the caller and other calls did meanwhile.
func TestIdempotentResendKeepsArgs(t *testing.T) {
	loop, hub := simLoop(), NewHub()
	present := false
	newStubFinder(loop, hub, func(string, string) (xrl.Args, error) {
		if !present {
			return nil, &xrl.Error{Code: xrl.CodeResolveFailed, Note: "no target"}
		}
		return resolution("peer", "", xrl.ProtoIntra+"|"+hub.id), nil
	})
	pr := NewRouter("peer_process", loop)
	pr.AttachHub(hub)
	r := NewRouter("caller_process", loop)
	r.AttachHub(hub)
	r.retry = RetryPolicy{Attempts: 4, Base: 50 * time.Millisecond, Max: time.Second}

	var got xrl.Args
	done := false
	buf := argsAt(7)
	args := buf[:]
	r.SendArgs(xrl.New("peer", "test", "1.0", "echo"), args, func(args xrl.Args, err *xrl.Error) {
		if err != nil {
			t.Fatalf("idempotent send: %v", err)
		}
		got, done = args, true
	}, true)
	overwrite(args, 8)
	loop.RunPending() // the first attempt fails to resolve and backs off
	if done {
		t.Fatal("the idempotent send was answered before it could back off")
	}
	// Other calls take records and copy their arguments meanwhile.
	for i := 0; i < 4; i++ {
		other := argsAt(20 + i)
		r.SendArgs(xrl.New("peer", "test", "1.0", "echo"), other[:], nil, false)
	}
	loop.RunPending()
	present = true
	pr.AddTarget(echoTarget("peer"))
	loop.RunFor(3 * time.Second)
	if !done {
		t.Fatal("the idempotent send was never answered")
	}
	want := argsAt(7)
	sameArgs(t, "the resent call's args", got, want[:])
}

// A released record holds no arguments: its storage is zeroed, so it pins
// no strings or lists, and storage wider than maxOwnArgs is dropped.
func TestReleasedRecordHoldsNoArgs(t *testing.T) {
	loop := simLoop()
	r := NewRouter("self_process", loop)
	r.AddTarget(echoTarget("self"))
	wide := make([]xrl.Atom, 3*maxOwnArgs)
	for i := range wide {
		wide[i] = xrl.Text("", "wide")
	}
	four := argsAt(1)
	for _, c := range []struct {
		what string
		send func(x xrl.XRL, cb Callback)
		args []xrl.Atom
	}{
		{"SendArgs, four atoms", func(x xrl.XRL, cb Callback) { r.SendArgs(x, four[:], cb, false) }, four[:]},
		{"Send, four atoms", func(x xrl.XRL, cb Callback) { x.Args = four[:]; r.Send(x, cb) }, four[:]},
		{"SendArgs, a wide call", func(x xrl.XRL, cb Callback) { r.SendArgs(x, wide, cb, false) }, wide},
		{"SendFromLoop, borrowed", func(x xrl.XRL, cb Callback) {
			x.Protocol, x.Target = xrl.ProtoIntra, "nowhere" // pre-resolved: it takes a record
			x.Args = four[:]
			r.SendFromLoop(x, cb)
		}, nil},
	} {
		answered := false
		c.send(xrl.New("self", "test", "1.0", "echo"), func(args xrl.Args, _ *xrl.Error) {
			answered = true
			if c.args != nil {
				sameArgs(t, c.what, args, c.args)
			}
		})
		loop.RunPending()
		if !answered {
			t.Fatalf("%s: never answered", c.what)
		}
		r.mu.Lock()
		n := 0
		for rec := r.free; rec != nil; rec = rec.next {
			n++
			if rec.x.Args != nil {
				t.Errorf("%s: a released record still carries %d args", c.what, len(rec.x.Args))
			}
			if cap(rec.own) > maxOwnArgs {
				t.Errorf("%s: a released record keeps storage for %d atoms, want at most %d",
					c.what, cap(rec.own), maxOwnArgs)
			}
			for i, a := range rec.own[:cap(rec.own)] {
				if !reflect.ValueOf(a).IsZero() {
					t.Errorf("%s: a released record's storage still holds %v at %d", c.what, a, i)
				}
			}
		}
		r.mu.Unlock()
		if n == 0 {
			t.Fatalf("%s: no record on the free list", c.what)
		}
	}
}

// A record fits the allocator's 384-byte size class. A Router keeps up to
// maxFreeCalls idle records, and the xrl workload fills the list: the next
// class, 416 bytes, adds 4 KB to its heap of 0.37 MiB.
func TestCallRecordSize(t *testing.T) {
	if n := unsafe.Sizeof(call{}); n > 384 {
		t.Fatalf("a call record is %d bytes, want at most 384", n)
	}
}

// listAt is n items for list call i.
func listAt(i, n int) []xrl.Atom {
	items := make([]xrl.Atom, n)
	for k := range items {
		items[k] = xrl.Route("", netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i), byte(k), 0}), 24),
			netip.Addr{}, uint32(i*1000+k), "eth0")
	}
	return items
}

// sendList composes a call of test/1.0/echo whose one list is call i's n
// items, built in the record as a stub builds a batch.
func sendList(r *Router, target string, i, n int, cb Callback, idem bool) {
	o := r.Compose(xrl.New(target, "test", "1.0", "echo"), cb, idem, n)
	o.Arg(xrl.U32("i", uint32(i)))
	copy(o.List("routes", n), listAt(i, n))
	o.Send()
}

// An idempotent list call that backs off is sent again with the items it
// was first sent with, while other list calls take item buffers, fill
// them and give them back.
func TestIdempotentResendKeepsItems(t *testing.T) {
	loop, hub := simLoop(), NewHub()
	present := false
	newStubFinder(loop, hub, func(string, string) (xrl.Args, error) {
		if !present {
			return nil, &xrl.Error{Code: xrl.CodeResolveFailed, Note: "no target"}
		}
		return resolution("peer", "", xrl.ProtoIntra+"|"+hub.id), nil
	})
	pr := NewRouter("peer_process", loop)
	pr.AttachHub(hub)
	r := NewRouter("caller_process", loop)
	r.AttachHub(hub)
	r.AddTarget(echoTarget("self"))
	r.retry = RetryPolicy{Attempts: 4, Base: 50 * time.Millisecond, Max: time.Second}

	var got xrl.Args
	sendList(r, "peer", 7, 256, func(args xrl.Args, err *xrl.Error) {
		if err != nil {
			t.Fatalf("idempotent send: %v", err)
		}
		got = args
	}, true)
	loop.RunPending() // the first attempt fails to resolve and backs off
	if got != nil {
		t.Fatal("the idempotent send was answered before it could back off")
	}
	for i := 0; i < 4; i++ {
		sendList(r, "self", 20+i, 256, nil, false)
		loop.RunPending()
	}
	present = true
	pr.AddTarget(echoTarget("peer"))
	loop.RunFor(3 * time.Second)
	if got == nil {
		t.Fatal("the idempotent send was never answered")
	}
	sameArgs(t, "the resent call's items", got[1].ListVal, listAt(7, 256))
}

// A released record holds no list items: it gives its item buffer back,
// and the buffer the Router keeps is empty and zeroed, so it pins no
// strings. That holds for items built in the record and for items
// SendArgs copied.
func TestReleasedRecordHoldsNoItems(t *testing.T) {
	loop := simLoop()
	r := NewRouter("self_process", loop)
	r.AddTarget(echoTarget("self"))
	answered := 0
	cb := func(args xrl.Args, err *xrl.Error) {
		if err != nil {
			t.Fatal(err)
		}
		answered++
	}
	for i := 0; i < 3; i++ {
		sendList(r, "self", i, 100+i, cb, false)
		r.SendArgs(xrl.New("self", "test", "1.0", "echo"), []xrl.Atom{xrl.List("routes", listAt(i, 50)...)}, cb, false)
	}
	loop.RunPending()
	if answered != 6 {
		t.Fatalf("%d calls answered, want 6", answered)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for rec := r.free; rec != nil; rec = rec.next {
		if rec.items != nil {
			t.Errorf("a released record still holds an item buffer of %d atoms", len(rec.items.atoms))
		}
	}
	b := r.spare
	if b == nil {
		t.Fatal("no item buffer came back")
	}
	if len(b.atoms) != 0 {
		t.Errorf("the idle item buffer has %d atoms in use", len(b.atoms))
	}
	for i, a := range b.atoms[:cap(b.atoms)] {
		if !reflect.ValueOf(a).IsZero() {
			t.Fatalf("the idle item buffer still holds %v at %d", a, i)
		}
	}
}

// The Router keeps one idle item buffer, no wider than xrl.MaxKeptItems,
// however many list calls were in flight and however wide: of those given
// back, the widest it may keep.
func TestSpareItemsBounded(t *testing.T) {
	loop := simLoop()
	r := NewRouter("self_process", loop)
	r.AddTarget(echoTarget("self"))
	widths := []int{3, 256, xrl.MaxKeptItems + 1, 40, 256, 3 * xrl.MaxKeptItems, 100, 512, 7, 256}
	answered := 0
	for i, n := range widths { // all in flight at once
		sendList(r, "self", i, n, func(args xrl.Args, err *xrl.Error) {
			if err != nil {
				t.Fatal(err)
			}
			answered++
		}, false)
	}
	loop.RunPending()
	if answered != len(widths) {
		t.Fatalf("%d calls answered, want %d", answered, len(widths))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.spare == nil || cap(r.spare.atoms) != 512 {
		t.Fatalf("the Router keeps item buffer %v, want one of 512 atoms", r.spare)
	}
}

// An aborted call is never sent, and its record and item buffer go back
// to the Router.
func TestAbortReleasesRecord(t *testing.T) {
	loop := simLoop()
	r := NewRouter("self_process", loop)
	handled := false
	self := NewTarget("self", "self")
	self.Register("test", "1.0", "echo", func(xrl.Args) (xrl.Args, error) {
		handled = true
		return nil, nil
	})
	r.AddTarget(self)
	o := r.Compose(xrl.New("self", "test", "1.0", "echo"), func(xrl.Args, *xrl.Error) {
		t.Error("an aborted call's callback ran")
	}, false, 256)
	copy(o.List("routes", 256), listAt(1, 256))
	o.Abort()
	loop.RunPending()
	if handled {
		t.Fatal("an aborted call was delivered")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.nfree != 1 || r.free.items != nil || len(r.free.own) != 0 {
		t.Fatalf("free list of %d records after an abort, want the aborted one, emptied", r.nfree)
	}
	if r.spare == nil || cap(r.spare.atoms) != 256 {
		t.Fatal("the aborted call's item buffer did not come back")
	}
}
