package xipc

import (
	"time"

	"xorp/internal/xrl"
)

// Who owns an XRL's arguments, from the send to the callback:
//
//   - SendArgs, and Send, copy the arguments into the call record before
//     they return, a list's items included (not the items of a list in a
//     list: no sender nests them). The caller may overwrite or reuse its
//     slice and its lists at once.
//   - Compose opens a call to be built in its record: Arg copies an atom
//     in, and List hands out record storage for a list's items, to be
//     filled in place. A stub builds its arguments this way,
//     so a batch of routes becomes atoms once, where the record keeps it.
//   - SendFromLoop borrows them: the caller keeps x.Args unchanged until
//     the callback runs.
//   - A Handler may read its args only until it returns. They are the
//     record's storage, or a transport's decoded request, a list's items
//     included, and the next call is copied or decoded over them. A
//     handler keeps what it needs by value: strings, addresses and a
//     binary atom's bytes are safe to keep; a list's items are not, and
//     neither is the Args slice, not even as its reply.
//   - The reply args a Callback receives belong to the callback.

// maxFreeCalls bounds the Router's list of idle call records. A steady
// pipeline reuses one record at a time — a record is released before its
// callback runs, and the callback is what sends the next XRL — so the
// list only fills when a window drains, and what it then holds is what
// the next window takes. 128 covers the Figure-9 window of 100: measured
// on the xrl workload, a list of 32 drops 68 records per drained window
// and pays 0.41 allocations per XRL to make them again (measured with a
// record of six objects), where 128 pays none. A record is four objects,
// under 0.5 KB, and a fifth once it has copied a call's arguments: its
// storage, at most maxOwnArgs atoms, 1.25 KB. So the list holds at most
// 64 KB of records and 160 KB of argument storage; the Figure-9 window,
// sent from the loop, borrows its arguments and fills only the first.
const maxFreeCalls = 128

// maxOwnArgs is the widest argument storage a released record keeps: a
// single-route XRL carries at most six atoms. Wider storage, from a call
// with more arguments, is dropped, so one wide call cannot fatten the
// free list.
const maxOwnArgs = 8

// A call's list items live apart from own, in an item buffer the record
// takes from its Router when the call carries a list and gives back when
// it is released: most calls carry none, and 128 idle records each
// holding a batch of items would pin 5 MB. The Router keeps one idle
// buffer, at most xrl.MaxKeptItems atoms (160 KB) wide. A Router sends
// one list call at a time on the bulk workload, so one buffer serves it;
// a call made while the buffer is out, or wider than it, takes a buffer
// of its own, and of two given back the Router keeps the wider.

// itemBuf is one item buffer: the items of every list of one call, laid
// end to end. Its length is what the call's lists have taken so far.
type itemBuf struct{ atoms []xrl.Atom }

// call is the record of one outgoing XRL, from the send to the
// callback: the one object that replaces a chain of per-call closures.
// The Router owns it and reuses it. Whatever it hands to a Loop is one of
// the three funcs bound when it was made, so a steady stream of XRLs
// allocates nothing here.
//
// A record belongs to one loop at a time. It is the sending Router's,
// except between intraSend and complete, when the destination's loop
// reads req and writes out and err — which is why a record that times
// out in that window is not released until it has hopped back (away and
// done below). On TCP and UDP nothing but the sender's loop sees it: a
// reply finds its record through the sender's pending table by sequence
// number, a number used once, so a reply that arrives after its record
// timed out and went on to carry another call finds nothing.
//
// A record waiting for a reply, or backing off between idempotent
// attempts, is on its Router's deadline list: the records in flight,
// threaded through prev and next in the order their deadlines fall, with
// one loop timer armed for the head (arm and expire below). A Router has
// one reply timeout, so a new deadline is nearly always the latest and
// joins at the tail; finish takes a record off in O(1). So a window of
// calls in flight costs the loop's timer heap nothing per call: a timer
// per record would cost a heap push and a heap remove, each under the
// loop's lock, on a heap as deep as the window.
type call struct {
	r *Router

	// What was asked; set by the send, cleared by release. x.Args is own
	// when the send copied the arguments, the caller's when SendFromLoop
	// lent them.
	x  xrl.XRL
	cb Callback

	// own is the record's argument storage, reused call after call;
	// release zeroes it, so it pins nothing, and drops it when it is
	// wider than maxOwnArgs. items holds the items of the lists in own,
	// nil when there are none; release zeroes it and gives it back. It
	// is a pointer so that the record stays in the 384-byte size class.
	own   []xrl.Atom
	items *itemBuf

	// Progress, touched only on r's loop.
	order      uint32 // place in r's send order, stamped once (stamp)
	attempt    uint32 // idempotent attempt, from 1
	idem       bool   // transient transport failures are retried (retry.go)
	allowRetry bool   // sent over a cached resolution not yet refreshed
	backingOff bool   // deadline ends an idempotent backoff, not a reply timeout
	away       bool   // at the destination's loop (intra)
	done       bool   // timed out while away; complete only releases it
	via        sender // transport holding the pending entry, if any

	// The wire request, and the intra destination that reads it.
	req  xrl.Request
	dest *Router

	// The reply on its way back from the destination's loop (intra).
	out xrl.Args
	err *xrl.Error

	// deadline is when the reply timeout, or the backoff, runs out; zero
	// while the record is off the deadline list. prev and next link that
	// list, earliest first. next also links the free list, which a record
	// joins only once off the deadline list.
	deadline   time.Time
	prev, next *call

	startFn, handleFn, completeFn func()
}

// newCall takes a record off the free list, or makes one. r.mu is held.
func (r *Router) newCall(x xrl.XRL, cb Callback, idem bool) *call {
	c := r.free
	if c != nil {
		r.free, c.next = c.next, nil
		r.nfree--
	} else {
		c = &call{r: r}
		c.startFn, c.handleFn, c.completeFn = c.start, c.handle, c.complete
	}
	c.x, c.cb, c.idem, c.attempt, c.allowRetry = x, cb, idem, 1, true
	return c
}

// release returns a finished record to the free list, dropping what it
// referenced. Runs on the loop, or, for a record never sent (Abort), on
// the goroutine that composed it.
func (r *Router) release(c *call) {
	c.x, c.cb, c.req, c.dest, c.via = xrl.XRL{}, nil, xrl.Request{}, nil, nil
	clear(c.own)
	if cap(c.own) > maxOwnArgs {
		c.own = nil
	} else {
		c.own = c.own[:0]
	}
	items := c.items
	if items != nil {
		clear(items.atoms)
		c.items = nil
	}
	c.out, c.err = nil, nil
	c.allowRetry, c.backingOff, c.away, c.done = false, false, false, false
	r.mu.Lock()
	if items != nil {
		r.putItems(items)
	}
	if r.nfree < maxFreeCalls {
		c.next, r.free = r.free, c
		r.nfree++
	}
	r.mu.Unlock()
}

// itemsFor returns the idle item buffer if it has room for n atoms, or a
// new one. r.mu is held.
func (r *Router) itemsFor(n int) *itemBuf {
	if b := r.spare; b != nil && cap(b.atoms) >= n {
		r.spare = nil
		return b
	}
	return &itemBuf{atoms: make([]xrl.Atom, 0, n)}
}

// putItems keeps b, emptied and zeroed, as the idle buffer, unless it is
// wider than xrl.MaxKeptItems or narrower than the one kept. r.mu is
// held.
func (r *Router) putItems(b *itemBuf) {
	if cap(b.atoms) > xrl.MaxKeptItems {
		return
	}
	if r.spare == nil || cap(r.spare.atoms) < cap(b.atoms) {
		b.atoms = b.atoms[:0]
		r.spare = b
	}
}

// takeItems returns n zeroed atoms of c's item buffer, for one list. A
// list past what the call reserved gets storage of its own.
func (c *call) takeItems(n int) []xrl.Atom {
	b := c.items
	if b == nil || len(b.atoms)+n > cap(b.atoms) {
		return make([]xrl.Atom, n)
	}
	at := len(b.atoms)
	b.atoms = b.atoms[:at+n]
	return b.atoms[at : at+n : at+n]
}

// copyLists points every list among atoms at a copy of its items in c's
// item buffer. A list's own lists are not copied: no sender nests them.
func (c *call) copyLists(atoms []xrl.Atom) {
	for i := range atoms {
		if a := &atoms[i]; a.Type == xrl.TypeList && len(a.ListVal) > 0 {
			items := c.takeItems(len(a.ListVal))
			copy(items, a.ListVal)
			a.ListVal = items
		}
	}
}

// countItems is how many items the lists among atoms hold.
func countItems(atoms []xrl.Atom) int {
	n := 0
	for i := range atoms {
		if atoms[i].Type == xrl.TypeList {
			n += len(atoms[i].ListVal)
		}
	}
	return n
}

// start is where a Send lands on the loop.
func (c *call) start() {
	c.r.stamp(c)
	c.r.route(c)
}

// stamp gives c the next place in r's send order: the order in which the
// loop sees its sends. A call is stamped once, before its first route; a
// retry or a re-route keeps its place. Stamps are compared as int32(a-b),
// so they may wrap. Runs on the loop.
func (r *Router) stamp(c *call) {
	r.stamps++
	c.order = r.stamps
}

// ordered reports whether a call to x waits its turn in its target's order
// queue when it cannot ship: a pre-resolved call, or one to the Finder,
// never queues.
func ordered(x *xrl.XRL) bool { return !x.IsResolved() && x.Target != FinderTargetName }

// arm puts c, which is off the deadline list, on it to expire d from now
// on the loop clock. The walk back from the tail ends at once unless d is
// shorter than the deadlines already listed: a backoff, or the reply
// timeout after SetTimeout shortened it. Runs on the loop.
func (r *Router) arm(c *call, d time.Duration) {
	now := r.loop.Now()
	c.deadline = now.Add(d)
	at := r.dtail // c goes after at, the last record due no later
	for at != nil && at.deadline.After(c.deadline) {
		at = at.prev
	}
	c.prev = at
	if at == nil {
		c.next, r.dhead = r.dhead, c
	} else {
		c.next, at.next = at.next, c
	}
	if c.next == nil {
		r.dtail = c
	} else {
		c.next.prev = c
	}
	r.wakeBy(c.deadline, now)
}

// unlink takes c off the deadline list, if it is on it. The timer is left
// as it is: when the head goes early, the timer fires once with nothing
// due and re-arms for the new head. Runs on the loop.
func (r *Router) unlink(c *call) {
	if c.deadline.IsZero() {
		return
	}
	if c.prev == nil {
		r.dhead = c.next
	} else {
		c.prev.next = c.next
	}
	if c.next == nil {
		r.dtail = c.prev
	} else {
		c.next.prev = c.prev
	}
	c.deadline, c.prev, c.next = time.Time{}, nil, nil
}

// wakeBy makes sure the deadline timer fires no later than at.
func (r *Router) wakeBy(at, now time.Time) {
	if !r.dtimerAt.IsZero() && !at.Before(r.dtimerAt) {
		return
	}
	r.dtimerAt = at
	if r.dtimer == nil {
		r.dtimer = r.loop.OneShot(at.Sub(now), r.expire)
	} else {
		r.dtimer.Reschedule(at.Sub(now))
	}
}

// expire is the deadline timer firing: every call whose deadline has
// passed expires, earliest first, and the timer is re-armed for the head
// that is left. Runs on the loop.
func (r *Router) expire() {
	r.dtimerAt = time.Time{}
	now := r.loop.Now()
	for c := r.dhead; c != nil && !c.deadline.After(now); c = r.dhead {
		r.unlink(c)
		c.expired()
	}
	if r.dhead != nil {
		r.wakeBy(r.dhead.deadline, now)
	}
}

// expired is c's deadline passing: a backoff that ends sends the call
// again, a reply timeout fails it. A call that backed off waited at its
// place in its target's order queue, which now ships from its head.
func (c *call) expired() {
	if c.backingOff {
		c.backingOff, c.allowRetry = false, true
		if ordered(&c.x) {
			c.r.drainPending(c.x.Target)
		} else {
			c.r.route(c)
		}
		return
	}
	proto := xrl.ProtoIntra // the one family that holds no sender
	if c.via != nil {
		proto = c.via.proto()
	}
	c.r.finish(c, nil, &xrl.Error{Code: xrl.CodeReplyTimeout,
		Note: proto + " reply timeout for " + c.req.Command})
}

// handle runs the request on the destination's loop (intra) and sends
// the record home with the reply.
func (c *call) handle() {
	c.out, c.err = c.dest.dispatch(c.req.Target, c.req.Command, c.req.Key, c.req.Args)
	c.r.loop.Dispatch(c.completeFn)
}

// complete is the record back on the sender's loop with its intra reply.
func (c *call) complete() {
	c.away = false
	if c.done {
		c.r.release(c) // the timeout already answered the caller
		return
	}
	c.r.finish(c, c.out, c.err)
}

// staleResolution reports whether a failure says the cached resolution no
// longer describes the target: it has gone, moved, or been re-keyed.
func staleResolution(code xrl.ErrorCode) bool {
	return code == xrl.CodeNoSuchTarget || code == xrl.CodeSendFailed || code == xrl.CodeBadKey
}

// finish ends one attempt of c with a reply or a failure. A failure that
// blames the cached resolution drops it and re-resolves, once; a
// transient one on an idempotent call backs off and tries again, within
// the policy; anything else is the caller's answer. The record is
// released before the callback runs: callbacks usually send the next XRL,
// and that one then takes this record. Runs on the loop.
func (r *Router) finish(c *call, args xrl.Args, err *xrl.Error) {
	r.unlink(c)
	if c.via != nil {
		c.via.forget(c)
		c.via = nil
	}
	if err != nil {
		if c.allowRetry && staleResolution(err.Code) {
			// Its method is cold now: route puts c back in its target's
			// order queue, at its place, and the head resolves afresh.
			c.allowRetry = false
			r.mu.Lock()
			delete(r.cache, keyOf(&c.x))
			r.mu.Unlock()
			r.route(c)
			return
		}
		if c.idem && retryable(err.Code) {
			r.mu.Lock()
			pol := r.retry
			r.mu.Unlock()
			if int(c.attempt) < pol.Attempts {
				c.backingOff = true
				r.arm(c, backoff(pol, int(c.attempt)))
				c.attempt++
				if ordered(&c.x) {
					r.enqueue(c) // the calls sent after c wait behind it
				}
				return
			}
		}
	}
	cb := c.cb
	if c.away {
		// Timed out with the request still at the destination's loop,
		// which may be reading the record now. Answer the caller; the
		// record is released when it comes home.
		c.done, c.cb = true, nil
	} else {
		r.release(c)
	}
	if cb != nil {
		cb(args, err)
	}
}
