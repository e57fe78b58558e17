package xipc

import (
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xorp/internal/eventloop"
	"xorp/internal/xrl"
)

// FinderTargetName is the well-known component name of the Finder. XRLs to
// this target bypass resolution (the Finder brokers everyone else).
const FinderTargetName = "finder"

// Callback receives the result of an asynchronous Send. It runs on the
// sending Router's event loop, exactly once. err is nil on success. args
// are the callback's to keep.
type Callback func(args xrl.Args, err *xrl.Error)

// resolved is where one method of one target is to be sent: a cached
// Finder resolution, or what a pre-resolved XRL or a call to the Finder
// itself already says.
type resolved struct {
	proto    string // xrl.ProtoIntra / ProtoSTCP / ProtoSUDP
	addr     string // hub id or host:port
	instance string // concrete component instance name
	key      string // method key
	// cmd is the command to put on the wire and to look the handler up
	// by: the one the caller composed, built once per resolution, so a
	// send over the cache never concatenates it.
	cmd string
}

// cacheKey identifies one cached resolution. A comparable struct of the
// XRL's own strings means a cache hit on the send hot path builds and
// allocates nothing.
type cacheKey struct{ target, iface, version, method string }

func keyOf(x *xrl.XRL) cacheKey {
	return cacheKey{x.Target, x.Interface, x.Version, x.Method}
}

// epKey identifies one live transport sender, again allocation-free.
type epKey struct{ proto, addr string }

// Router is the per-process XRL dispatcher (XORP's XrlRouter). It hosts
// local Targets, resolves and sends outgoing XRLs, and listens on the
// transports it has been given. All callbacks run on its event loop.
type Router struct {
	name string
	loop *eventloop.Loop
	seq  atomic.Uint32

	mu            sync.Mutex
	targets       map[string]*Target
	cache         map[cacheKey]resolved
	senders       map[epKey]sender
	hub           *Hub
	closed        bool // Close is final: every later send fails in route
	tcpLn         *tcpListener
	udpLn         *udpListener
	finderEp      string // "proto|addr" of the Finder ("" = hub lookup)
	timeout       time.Duration
	retry         RetryPolicy // idempotent sends' backoff (retry.go)
	onFinderEvent func(event, class, instance string)

	// free is the list of idle call records (call.go), nfree its length.
	free  *call
	nfree int
	// spare is the idle item buffer (call.go), or nil.
	spare *itemBuf

	// dhead and dtail end the deadline list of the calls in flight
	// (call.go); dtimer fires for its head, at dtimerAt (zero when not
	// armed). Touched only on the loop goroutine.
	dhead, dtail *call
	dtimer       *eventloop.Timer
	dtimerAt     time.Time

	// pendingSends holds, per target, the order queue of the calls that
	// cannot ship yet (sendQueue); stamps is the last send-order stamp
	// handed out (stamp, in call.go). Touched only on the loop goroutine.
	pendingSends map[string]*sendQueue
	stamps       uint32
}

// sendQueue is one target's order queue: the calls to it that cannot
// ship yet, sorted by send order. Once a call waits here, every call sent
// to the target after it waits too, behind it. A call waits behind a
// Finder lookup, its own method's or an earlier call's; while it backs off
// between idempotent attempts; and, after its cached resolution went
// stale, until its method resolves afresh. enqueue is the one way in, at
// the call's stamp's place, and drainPending ships from the head. Without
// it, the first use of a method would wait a lookup while later sends of
// resolved methods overtook it, and a retry would land after calls sent
// behind it: both reorder route updates.
type sendQueue struct {
	calls     []*call
	resolving bool // a Finder lookup for a queued call is out
}

// NewRouter returns a Router named name (the process instance name,
// e.g. "bgp") bound to loop.
func NewRouter(name string, loop *eventloop.Loop) *Router {
	return &Router{
		name:         name,
		loop:         loop,
		targets:      make(map[string]*Target),
		cache:        make(map[cacheKey]resolved),
		senders:      make(map[epKey]sender),
		pendingSends: make(map[string]*sendQueue),
		timeout:      30 * time.Second,
		retry:        DefaultRetryPolicy,
	}
}

// Name returns the router's instance name.
func (r *Router) Name() string { return r.name }

// Loop returns the router's event loop.
func (r *Router) Loop() *eventloop.Loop { return r.loop }

// SetTimeout sets the reply timeout for outgoing XRLs.
func (r *Router) SetTimeout(d time.Duration) { r.timeout = d }

// SetFinderEvent installs a callback (run on the loop) invoked for Finder
// birth/death events delivered to this router.
func (r *Router) SetFinderEvent(fn func(event, class, instance string)) {
	r.onFinderEvent = fn
}

// AddTarget makes t reachable through this router. It does not register t
// with the Finder; call RegisterWithFinder for that.
func (r *Router) AddTarget(t *Target) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.targets[t.Name] = t
	if r.hub != nil {
		r.hub.addTarget(t.Name, r)
	}
}

// AttachHub joins the router to an in-process Hub, enabling the
// intra-process protocol family.
func (r *Router) AttachHub(h *Hub) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hub = h
	h.addRouter(r)
	for name := range r.targets {
		h.addTarget(name, r)
	}
}

// SetFinderTCP points the router at a Finder reachable over TCP at addr.
// Without this, the Finder is located through the Hub.
func (r *Router) SetFinderTCP(addr string) {
	r.mu.Lock()
	r.finderEp = xrl.ProtoSTCP + "|" + addr
	r.mu.Unlock()
}

// Endpoints returns the transport endpoints this router can be reached on,
// as "proto|addr" strings, for Finder registration.
func (r *Router) Endpoints() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var eps []string
	if r.hub != nil {
		eps = append(eps, xrl.ProtoIntra+"|"+r.hub.id)
	}
	if r.tcpLn != nil {
		eps = append(eps, xrl.ProtoSTCP+"|"+r.tcpLn.addr())
	}
	if r.udpLn != nil {
		eps = append(eps, xrl.ProtoSUDP+"|"+r.udpLn.addr())
	}
	return eps
}

// nextSeq allocates a request sequence number.
func (r *Router) nextSeq() uint32 { return r.seq.Add(1) }

// Send dispatches x asynchronously. cb (which may be nil) runs on the
// router's event loop with the reply, never before Send returns.
// Unresolved XRLs are resolved via the Finder first, with results cached;
// resolved XRLs go straight to the named transport. Safe to call from any
// goroutine. x.Args is copied, as SendArgs copies its args.
//
// The reply args handed to cb are the callback's to keep: nothing in the
// Router recycles them.
func (r *Router) Send(x xrl.XRL, cb Callback) { r.SendArgs(x, x.Args, cb, false) }

// SendArgs is Send for x with the arguments args (x.Args is ignored). It
// copies args, and the items of the lists among them, into the call record before
// it returns, so the caller may build them on its stack and overwrite
// them at once; the record keeps the copy until the call is answered, and
// reuses its storage for the next call. With idem set, transient
// transport failures (CodeResolveFailed, CodeSendFailed) are retried with
// bounded jittered exponential backoff before the error reaches cb
// (finish, in call.go, keeps the attempt count in the record); set it
// only for calls that are safe to deliver more than once. A local target
// is called directly and cannot fail with a transport error, so it never
// retries. Safe to call from any goroutine.
func (r *Router) SendArgs(x xrl.XRL, args xrl.Args, cb Callback, idem bool) {
	o := r.Compose(x, cb, idem, countItems(args))
	o.c.own = append(o.c.own, args...)
	o.c.copyLists(o.c.own)
	o.Send()
}

// Outgoing is an XRL being built in its call record, argument by
// argument, until Send ships it. The typed stubs (internal/xif) send
// their route batches this way: they encode each route straight into the
// record's item storage, and check the call against its spec before
// Send.
type Outgoing struct{ c *call }

// Compose opens a call of x (x.Args is ignored) whose lists will hold
// items atoms in all, taken from the Router's idle item buffer. The
// arguments go in with Arg and List, in order; then Send, or Abort. cb
// and idem are as for SendArgs. Safe to call from any goroutine; the
// Outgoing belongs to the caller until Send.
func (r *Router) Compose(x xrl.XRL, cb Callback, idem bool, items int) Outgoing {
	r.mu.Lock()
	c := r.newCall(x, cb, idem)
	if items > 0 {
		c.items = r.itemsFor(items)
	}
	r.mu.Unlock()
	return Outgoing{c}
}

// Arg appends a copy of a to the arguments. A list goes in with List.
func (o Outgoing) Arg(a xrl.Atom) { o.c.own = append(o.c.own, a) }

// List appends a list argument of n items and returns the items, zeroed,
// for the caller to fill before Send. They are the record's storage.
func (o Outgoing) List(name string, n int) []xrl.Atom {
	items := o.c.takeItems(n)
	o.c.own = append(o.c.own, xrl.List(name, items...))
	return items
}

// Args is the argument list built so far.
func (o Outgoing) Args() xrl.Args { return o.c.own }

// Send ships the call, as SendArgs does; the Outgoing is spent.
func (o Outgoing) Send() {
	o.c.x.Args = o.c.own
	o.c.r.loop.Dispatch(o.c.startFn)
}

// Abort drops the call unsent and gives its record, and its item buffer,
// back to the Router; the Outgoing is spent and cb never runs.
func (o Outgoing) Abort() { o.c.r.release(o.c) }

// SendFromLoop is Send for callers already running on the router's event
// loop (handlers, reply callbacks, timers). It skips the queue round-trip,
// which roughly halves the cost of a local XRL, and it borrows x.Args
// instead of copying them: the caller leaves them unchanged until cb runs.
// Unlike Send, cb may run synchronously — before SendFromLoop returns —
// when the target is a local component or the send fails on the spot;
// callers must not hold locks that cb also takes. Calling it from any
// other goroutine is a data-ordering bug.
//
// A local target is called directly, with no record, no marshaling, no
// Finder, not even a command string (the intra-process "direct method
// call" family of §6.3 and Figure 9).
func (r *Router) SendFromLoop(x xrl.XRL, cb Callback) {
	r.mu.Lock()
	if t, ok := r.targets[x.Target]; ok && !x.IsResolved() && !r.closed {
		r.mu.Unlock()
		out, err := r.dispatchLocal(t, &x)
		if cb != nil {
			cb(out, err)
		}
		return
	}
	c := r.newCall(x, cb, false)
	r.mu.Unlock()
	r.stamp(c)
	r.route(c)
}

// Call is a synchronous convenience wrapper around Send for code running
// OUTSIDE the event loop (tools, tests). Calling it from a loop callback
// deadlocks.
func (r *Router) Call(x xrl.XRL) (xrl.Args, *xrl.Error) {
	type result struct {
		args xrl.Args
		err  *xrl.Error
	}
	ch := make(chan result, 1)
	r.Send(x, func(args xrl.Args, err *xrl.Error) {
		ch <- result{args, err}
	})
	res := <-ch
	return res.args, res.err
}

// route sends c on its way: to a local target by direct call; to the
// endpoint a pre-resolved XRL names; to the Finder, which is addressed
// directly and never resolved; and otherwise over the cached resolution
// of its method, unless it must wait in its target's order queue: behind
// earlier calls that wait there, or for its method's lookup. Runs on the
// loop.
func (r *Router) route(c *call) {
	x := &c.x
	preResolved := x.IsResolved()
	var (
		res resolved
		hit bool
	)
	r.mu.Lock()
	closed := r.closed
	t, isLocal := r.targets[x.Target]
	if !isLocal && !preResolved {
		res, hit = r.cache[keyOf(x)]
	}
	r.mu.Unlock()
	parked := r.pendingSends[x.Target]

	switch {
	case closed:
		// Nothing a closed router is handed reaches a target, local or
		// remote: the process behind it is gone, and what it still says
		// (a timer that outlived it on a shared loop) must not be heard.
		c.allowRetry, c.idem = false, false
		r.finish(c, nil, &xrl.Error{Code: xrl.CodeSendFailed, Note: "router closed"})

	case isLocal && !preResolved:
		// The record carried the XRL across the queue, and the handler
		// reads the record's arguments: release it only once the handler
		// has returned, or a send from the handler takes the record and
		// copies its own arguments over them.
		out, err := r.dispatchLocal(t, x)
		cb := c.cb
		r.release(c)
		if cb != nil {
			cb(out, err)
		}

	case preResolved:
		// Resolved by the caller (e.g. parsed from a call_xrl string).
		c.allowRetry = false
		r.transportSend(c, resolved{proto: x.Protocol, addr: x.Target, instance: x.Target,
			key: x.Key, cmd: x.Command()})

	case x.Target == FinderTargetName:
		c.allowRetry = false
		ep, ok := r.finderEndpoint()
		if !ok {
			r.finish(c, nil, &xrl.Error{Code: xrl.CodeNoFinder, Note: "no route to finder"})
			return
		}
		ep.cmd = x.Command()
		r.transportSend(c, ep)

	case parked == nil && hit:
		r.transportSend(c, res)

	default:
		// Earlier calls to this target wait in its order queue, or the
		// method is cold: c waits there too, at its place.
		r.enqueue(c)
	}
}

// enqueue puts c, which is not on the wire, into its target's order
// queue at its stamp's place, opening the queue if there is none, and
// ships what the queue can. A new send goes to the tail; a re-routed or
// backing-off call goes back in front of the calls sent after it. Runs
// on the loop.
func (r *Router) enqueue(c *call) {
	q := r.pendingSends[c.x.Target]
	if q == nil {
		q = &sendQueue{}
		r.pendingSends[c.x.Target] = q
	}
	i := len(q.calls)
	for i > 0 && int32(q.calls[i-1].order-c.order) > 0 {
		i--
	}
	q.calls = slices.Insert(q.calls, i, c)
	r.drainPending(c.x.Target)
}

// drainPending ships target's queued calls from the head while their
// methods hit the resolution cache, and closes the queue once it is
// empty. It stops at a head backing off, whose backoff's end drains again
// (expired), and at a cold head, whose method it asks the Finder for,
// carrying on when the answer is in. Runs on the loop.
func (r *Router) drainPending(target string) {
	q := r.pendingSends[target]
	// One lookup at a time: a head that fails on the spot (a stale
	// resolution) comes back in from inside this loop, cold, and is
	// looked up there.
	for q != nil && !q.resolving {
		if len(q.calls) == 0 {
			if r.pendingSends[target] == q {
				delete(r.pendingSends, target)
			}
			return
		}
		head := q.calls[0]
		if head.backingOff {
			return
		}
		ck := keyOf(&head.x)
		r.mu.Lock()
		res, hit := r.cache[ck]
		r.mu.Unlock()
		if hit {
			r.transportSend(q.pop(), res)
			continue
		}
		q.resolving = true
		r.resolve(ck, func(res resolved, err *xrl.Error) {
			q.resolving = false
			if err != nil {
				// The call looked up fails, wherever it stands now: a
				// call sent before it may have come back in front.
				q.remove(head)
				head.allowRetry = false // the resolution failed, it is not stale
				r.finish(head, nil, err)
			} else {
				r.mu.Lock()
				r.cache[ck] = res
				r.mu.Unlock()
			}
			r.drainPending(target)
		})
	}
}

// pop takes the head off the queue.
func (q *sendQueue) pop() *call {
	head := q.calls[0]
	q.calls[0] = nil
	q.calls = q.calls[1:]
	return head
}

// remove takes c out of the queue.
func (q *sendQueue) remove(c *call) {
	if i := slices.Index(q.calls, c); i >= 0 {
		q.calls = slices.Delete(q.calls, i, i+1)
	}
}

// resolve asks the Finder for the concrete endpoint of one method of a
// target. This is the IPC bootstrap: the one XRL composed below the typed
// stub layer (xif stubs ride on it, so it cannot use them).
func (r *Router) resolve(ck cacheKey, done func(resolved, *xrl.Error)) {
	cmd := ck.iface + "/" + ck.version + "/" + ck.method
	q := xrl.XRL{
		Protocol: xrl.ProtoFinder, Target: FinderTargetName,
		Interface: "finder", Version: "1.0", Method: "resolve",
		Args: xrl.Args{
			xrl.Text("caller", r.name),
			xrl.Text("target", ck.target),
			xrl.Text("command", cmd),
		},
	}
	r.SendFromLoop(q, func(args xrl.Args, err *xrl.Error) {
		if err != nil {
			if err.Code == xrl.CodeReplyTimeout || err.Code == xrl.CodeSendFailed {
				err = &xrl.Error{Code: xrl.CodeNoFinder, Note: err.Note}
			}
			done(resolved{}, err)
			return
		}
		instance, e1 := args.TextArg("instance")
		key, e2 := args.TextArg("key")
		eps, e3 := args.ListArg("endpoints")
		if e1 != nil || e2 != nil || e3 != nil {
			done(resolved{}, &xrl.Error{Code: xrl.CodeInternal, Note: "malformed finder resolve reply"})
			return
		}
		res, ok := r.pickEndpoint(instance, key, eps)
		if !ok {
			done(resolved{}, &xrl.Error{Code: xrl.CodeResolveFailed,
				Note: "no usable transport to " + instance})
			return
		}
		res.cmd = cmd
		done(res, nil)
	})
}

// pickEndpoint chooses the best protocol family from a resolution reply:
// intra-process if the target shares our Hub, then TCP, then UDP.
func (r *Router) pickEndpoint(instance, key string, eps []xrl.Atom) (resolved, bool) {
	r.mu.Lock()
	hubID := ""
	if r.hub != nil {
		hubID = r.hub.id
	}
	r.mu.Unlock()
	best := resolved{instance: instance, key: key}
	rank := 0 // 3=intra, 2=tcp, 1=udp
	for _, ep := range eps {
		proto, addr, ok := strings.Cut(ep.TextVal, "|")
		if !ok {
			continue
		}
		switch {
		case proto == xrl.ProtoIntra && addr == hubID && hubID != "" && rank < 3:
			best.proto, best.addr, rank = proto, addr, 3
		case proto == xrl.ProtoSTCP && rank < 2:
			best.proto, best.addr, rank = proto, addr, 2
		case proto == xrl.ProtoSUDP && rank < 1:
			best.proto, best.addr, rank = proto, addr, 1
		}
	}
	return best, rank > 0
}

// finderEndpoint returns how to reach the Finder.
func (r *Router) finderEndpoint() (resolved, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.finderEp != "" {
		proto, addr, _ := strings.Cut(r.finderEp, "|")
		return resolved{proto: proto, addr: addr, instance: FinderTargetName}, true
	}
	if r.hub != nil {
		if _, ok := r.hub.routerForTarget(FinderTargetName); ok {
			return resolved{proto: xrl.ProtoIntra, addr: r.hub.id, instance: FinderTargetName}, true
		}
	}
	return resolved{}, false
}

// dispatchLocal runs a handler on a local target and returns its reply,
// for the caller, already on the loop, to hand to the callback at once:
// no queue trips and no allocations.
func (r *Router) dispatchLocal(t *Target, x *xrl.XRL) (xrl.Args, *xrl.Error) {
	m, ok := t.methodOf(x)
	if !ok {
		return nil, &xrl.Error{Code: xrl.CodeNoSuchMethod, Note: t.Name + " has no method " + x.Command()}
	}
	out, err := m.h(x.Args)
	return out, xrl.AsError(err)
}

// transportSend puts c's request on the transport res names and arms the
// reply timeout, on the loop clock so simulated time works.
func (r *Router) transportSend(c *call, res resolved) {
	c.req = xrl.Request{Target: res.instance, Command: res.cmd, Key: res.key, Args: c.x.Args}
	if r.timeout > 0 {
		r.arm(c, r.timeout)
	}
	if res.proto == xrl.ProtoIntra {
		r.intraSend(c, res.addr)
		return
	}
	s, err := r.senderFor(res.proto, res.addr)
	if err != nil {
		r.finish(c, nil, err)
		return
	}
	c.req.Seq = r.nextSeq()
	c.via = s
	s.send(c)
}

// intraSend is the intra-process zero-copy dispatch (§6.3): a resolved
// co-resident target gets the record's xrl.Args handed over directly — no
// encode/decode round-trip, no sender object. The record itself crosses
// to the destination router's loop, runs the handler there and hops back
// with the reply. Resolution (and with it the Finder's ACLs and method
// keys) already happened; the key is still verified against the
// destination target. Error codes match the transports' so the
// stale-resolution retry in finish works the same.
func (r *Router) intraSend(c *call, hubID string) {
	r.mu.Lock()
	hub := r.hub
	r.mu.Unlock()
	if hub == nil || hub.id != hubID {
		r.finish(c, nil, &xrl.Error{Code: xrl.CodeSendFailed, Note: "not attached to hub " + hubID})
		return
	}
	dest, ok := hub.routerForTarget(c.req.Target)
	if !ok {
		r.finish(c, nil, &xrl.Error{Code: xrl.CodeNoSuchTarget,
			Note: "no target " + c.req.Target + " on hub"})
		return
	}
	c.dest, c.away = dest, true
	dest.loop.Dispatch(c.handleFn)
}

// senderFor returns (creating if needed) the sender for proto|addr.
// Intra-process traffic never reaches here (see intraSend).
func (r *Router) senderFor(proto, addr string) (sender, *xrl.Error) {
	key := epKey{proto, addr}
	r.mu.Lock()
	if s, ok := r.senders[key]; ok {
		r.mu.Unlock()
		return s, nil
	}
	r.mu.Unlock()

	var (
		s   sender
		err *xrl.Error
	)
	switch proto {
	case xrl.ProtoSTCP:
		s, err = newTCPSender(r, addr)
	case xrl.ProtoSUDP:
		s, err = newUDPSender(r, addr)
	default:
		return nil, &xrl.Error{Code: xrl.CodeSendFailed, Note: "unknown protocol family " + proto}
	}
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	// Another send cannot have raced us (senders are made on the loop), but
	// be defensive anyway.
	if exist, ok := r.senders[key]; ok {
		r.mu.Unlock()
		s.close()
		return exist, nil
	}
	r.senders[key] = s
	r.mu.Unlock()
	return s, nil
}

// dropSender removes a dead sender so the next request reconnects.
func (r *Router) dropSender(s sender) {
	r.mu.Lock()
	for k, v := range r.senders {
		if v == s {
			delete(r.senders, k)
			break
		}
	}
	r.mu.Unlock()
}

// serve runs an incoming transport request and fills in rep, which the
// caller owns and may reuse for the next request. req.Args are the
// handler's only until it returns (the transports decode every request
// of a connection into one Request). Must be called on the router's loop.
func (r *Router) serve(req *xrl.Request, rep *xrl.Reply) {
	out, xe := r.dispatch(req.Target, req.Command, req.Key, req.Args)
	*rep = xrl.Reply{Seq: req.Seq, Code: xrl.CodeOkay, Args: out}
	if xe != nil {
		rep.Code, rep.Note = xe.Code, xe.Note
	}
}

// dispatch runs one incoming request against this router's targets. It is
// the single source of dispatch semantics, shared by every transport
// (serve) and the zero-copy intra path (call.handle): finder_client
// special-casing, target lookup, method lookup, then the per-method key
// check (§7) — once the Finder has issued a key for a method, delivered
// calls must present it. Must run on the router's loop.
func (r *Router) dispatch(targetName, cmd, key string, args xrl.Args) (xrl.Args, *xrl.Error) {
	// Internal finder_client interface: cache invalidation and lifetime
	// events pushed by the Finder (§6.2).
	if strings.HasPrefix(cmd, "finder_client/1.0/") {
		return r.handleFinderEvent(cmd, args)
	}
	r.mu.Lock()
	t, ok := r.targets[targetName]
	closed := r.closed
	r.mu.Unlock()
	if !ok || closed {
		// A call that was on its way when the router closed (an intra
		// record already queued on this loop) is refused like any later
		// one: the process behind a closed router is gone.
		return nil, &xrl.Error{Code: xrl.CodeNoSuchTarget,
			Note: "no target " + targetName + " in process " + r.name}
	}
	m, ok := t.method(cmd)
	if !ok {
		return nil, &xrl.Error{Code: xrl.CodeNoSuchMethod,
			Note: targetName + " has no method " + cmd}
	}
	if m.key != "" && key != m.key {
		return nil, &xrl.Error{Code: xrl.CodeBadKey, Note: "method key mismatch for " + cmd}
	}
	out, err := m.h(args)
	return out, xrl.AsError(err)
}

func (r *Router) handleFinderEvent(cmd string, args xrl.Args) (xrl.Args, *xrl.Error) {
	switch cmd {
	case "finder_client/1.0/ping":
		// Liveness probe; nothing to do.
	case "finder_client/1.0/invalidate":
		instance, err := args.TextArg("instance")
		if err != nil {
			return nil, &xrl.Error{Code: xrl.CodeBadArgs}
		}
		r.mu.Lock()
		for k, v := range r.cache {
			if v.instance == instance || k.target == instance {
				delete(r.cache, k)
			}
		}
		r.mu.Unlock()
	case "finder_client/1.0/birth", "finder_client/1.0/death":
		class, e1 := args.TextArg("class")
		instance, e2 := args.TextArg("instance")
		if e1 != nil || e2 != nil {
			return nil, &xrl.Error{Code: xrl.CodeBadArgs}
		}
		if cmd == "finder_client/1.0/death" {
			r.mu.Lock()
			for k, v := range r.cache {
				if v.instance == instance {
					delete(r.cache, k)
				}
			}
			r.mu.Unlock()
		}
		if r.onFinderEvent != nil {
			event := strings.TrimPrefix(cmd, "finder_client/1.0/")
			r.onFinderEvent(event, class, instance)
		}
	default:
		return nil, &xrl.Error{Code: xrl.CodeNoSuchMethod,
			Note: "unknown finder_client method " + cmd}
	}
	return nil, nil
}

// CacheLen reports the number of cached resolutions (for tests).
func (r *Router) CacheLen() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.cache)
}

// Close shuts down listeners and senders, for good: every send after it
// finishes with CodeSendFailed and goes nowhere. The resolution cache goes
// too, so sends parked behind a resolution in flight fail with it rather
// than ship on a hit.
func (r *Router) Close() {
	r.mu.Lock()
	r.closed = true
	clear(r.cache)
	senders := make([]sender, 0, len(r.senders))
	for _, s := range r.senders {
		senders = append(senders, s)
	}
	r.senders = make(map[epKey]sender)
	tcpLn, udpLn, hub := r.tcpLn, r.udpLn, r.hub
	r.tcpLn, r.udpLn = nil, nil
	targets := make([]string, 0, len(r.targets))
	for name := range r.targets {
		targets = append(targets, name)
	}
	r.mu.Unlock()

	for _, s := range senders {
		s.close()
	}
	if tcpLn != nil {
		tcpLn.close()
	}
	if udpLn != nil {
		udpLn.close()
	}
	if hub != nil {
		for _, name := range targets {
			hub.removeTarget(name)
		}
		hub.removeRouter(r)
	}
}

// sender is one live transport attachment (per destination endpoint).
type sender interface {
	// send transmits c.req. The reply, or the failure to get one, ends
	// in exactly one Router.finish(c, ...) on the router's loop — unless
	// forget comes first. Called on the loop.
	send(c *call)
	// forget drops whatever the sender holds for c: the call is over
	// (answered, or timed out). Called on the loop, by finish.
	forget(c *call)
	// proto names the sender's protocol family, for a timeout's note.
	proto() string
	close()
}
