package xipc

import (
	"time"

	"xorp/internal/xrl"
)

// Who owns an XRL's arguments, from the send to the callback:
//
//   - SendArgs, and Send, copy the arguments into the call record before
//     they return. The caller may overwrite or reuse its slice at once;
//     a stub builds its arguments on its own stack.
//   - SendFromLoop borrows them: the caller keeps x.Args unchanged until
//     the callback runs.
//   - A Handler may read its args only until it returns. They are the
//     record's storage, or a transport's decoded request, and the next
//     call is copied or decoded over them. A handler keeps what it needs
//     by value: strings, addresses, a list's items and a binary atom's
//     bytes are safe to keep; the Args slice is not, not even as its
//     reply.
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
	x    xrl.XRL
	cb   Callback
	idem bool // transient transport failures are retried (retry.go)

	// own is the record's argument storage, reused call after call;
	// release zeroes it, so it pins nothing, and drops it when it is
	// wider than maxOwnArgs.
	own []xrl.Atom

	// Progress, touched only on r's loop.
	attempt    int    // idempotent attempt, from 1
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
// referenced. Runs on the loop.
func (r *Router) release(c *call) {
	c.x, c.cb, c.req, c.dest, c.via = xrl.XRL{}, nil, xrl.Request{}, nil, nil
	clear(c.own)
	if cap(c.own) > maxOwnArgs {
		c.own = nil
	} else {
		c.own = c.own[:0]
	}
	c.out, c.err = nil, nil
	c.allowRetry, c.backingOff, c.away, c.done = false, false, false, false
	r.mu.Lock()
	if r.nfree < maxFreeCalls {
		c.next, r.free = r.free, c
		r.nfree++
	}
	r.mu.Unlock()
}

// start is where a Send lands on the loop.
func (c *call) start() { c.r.route(c) }

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
// again, a reply timeout fails it.
func (c *call) expired() {
	if c.backingOff {
		c.backingOff, c.allowRetry = false, true
		c.r.route(c)
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
			if c.attempt < pol.Attempts {
				c.backingOff = true
				r.arm(c, backoff(pol, c.attempt))
				c.attempt++
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
