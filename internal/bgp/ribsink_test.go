package bgp

import (
	"fmt"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"time"

	"xorp/internal/eventloop"
	"xorp/internal/route"
)

// recClient is a RIBClient that records the runs it is handed, in
// arrival order: log has one "method proto net…" line per run, ops the
// same stream flattened to one op per route.
type recClient struct {
	log []string
	ops []ribOp
}

func (c *recClient) rec(method, proto string, del bool, es ...route.Entry) {
	s := method + " " + proto
	for _, e := range es {
		s += " " + e.Net.String()
		c.ops = append(c.ops, ribOp{del, proto, e})
	}
	c.log = append(c.log, s)
}

func (c *recClient) AddRoutes4(proto string, es []route.Entry, _ func(error)) {
	c.rec("add_routes4", proto, false, es...)
}

func (c *recClient) DeleteRoutes4(proto string, nets []netip.Prefix, _ func(error)) {
	es := make([]route.Entry, len(nets))
	for i := range nets {
		es[i].Net = nets[i]
	}
	c.rec("delete_routes4", proto, true, es...)
}

// newRecSink is a RIB branch of a process on a simulated loop, handing
// its runs to a recording client.
func newRecSink() (*ribSinkStage, *recClient, *eventloop.Loop) {
	loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
	rec := &recClient{}
	p := NewProcess(loop, Config{AS: 65001, BGPID: mustA("10.0.0.254")}, rec, nil)
	return newRIBSink(p), rec, loop
}

func sinkRoute(net string, ibgp bool) Route {
	return Route{Net: mustP(net), Attrs: attrsVia("10.0.0.1", 65002), Src: &PeerHandle{IBGP: ibgp}}
}

// What the RIB is to be told of r: its origin table, and the entry.
func ribProtoOf(r Route) string {
	if r.Src.IBGP {
		return "ibgp"
	}
	return "ebgp"
}

func ribEntryOf(r Route) route.Entry {
	return route.Entry{Net: r.Net, NextHop: r.Attrs.NextHop, Metric: r.IGPMetric}
}

// TestRIBClientKeepsOrderAcrossKinds: adds, withdraws and replaces share
// one queue, so however a drain is cut into runs, replaying what the RIB
// received route by route is the sequence of ops the branch was handed —
// a replace being an add, after a withdraw under the old protocol when the
// winner changed protocol — and so leaves every prefix in the state the
// branch's last op gave it.
func TestRIBClientKeepsOrderAcrossKinds(t *testing.T) {
	s, rec, loop := newRecSink()
	// The script's calls also append what they mean to want.
	var want []ribOp
	add := func(r Route) {
		s.Add([]Route{r})
		want = append(want, ribOp{false, ribProtoOf(r), ribEntryOf(r)})
	}
	del := func(r Route) {
		s.Delete([]Route{r})
		want = append(want, ribOp{true, ribProtoOf(r), route.Entry{Net: r.Net}})
	}
	replace := func(old, new Route) {
		s.Replace(old, new)
		if ribProtoOf(old) != ribProtoOf(new) {
			want = append(want, ribOp{true, ribProtoOf(old), route.Entry{Net: old.Net}})
		}
		want = append(want, ribOp{false, ribProtoOf(new), ribEntryOf(new)})
	}

	r := sinkRoute("20.1.0.0/16", false)
	r2 := sinkRoute("20.1.0.0/16", false)
	r2.IGPMetric = 9
	rIBGP := sinkRoute("20.1.0.0/16", true)
	other := sinkRoute("20.2.0.0/16", false)
	loop.Dispatch(func() {
		add(r)
		del(r)
		add(r)
		add(other)
		replace(r, r2) // behind the add of the same prefix: one run names it twice
		del(other)
		replace(r2, rIBGP) // the winner moves to an IBGP peer: the ebgp entry goes first
	})
	loop.RunPending()
	if !reflect.DeepEqual(rec.ops, want) {
		t.Fatalf("RIB saw, route by route\n  %v\nthe branch was handed\n  %v", rec.ops, want)
	}
	final := make(map[string]route.Entry)
	for _, op := range rec.ops {
		if key := op.proto + " " + op.e.Net.String(); op.del {
			delete(final, key)
		} else {
			final[key] = op.e
		}
	}
	if e, ok := final["ibgp 20.1.0.0/16"]; len(final) != 1 || !ok || !e.Equal(ribEntryOf(rIBGP)) {
		t.Fatalf("replayed, the RIB holds %v, want only the IBGP winner", final)
	}
	if rec.log[2] != "add_routes4 ebgp 20.1.0.0/16 20.2.0.0/16 20.1.0.0/16" {
		t.Fatalf("third run = %q, want the add, the other add and the replace in one list", rec.log[2])
	}
	if len(s.pend) != 0 || cap(s.pend) == 0 {
		t.Fatalf("queue len %d cap %d after the drain, want empty and kept", len(s.pend), cap(s.pend))
	}
}

// TestRIBClientBatchesWithdraws: a run of withdraws ships as one
// DeleteRoutes4, capped at ribBatchCap, and splits where the protocol
// changes.
func TestRIBClientBatchesWithdraws(t *testing.T) {
	s, rec, loop := newRecSink()
	loop.Dispatch(func() {
		for i := 0; i <= ribBatchCap; i++ {
			s.Delete([]Route{sinkRoute(fmt.Sprintf("20.%d.%d.0/24", i/256, i%256), false)})
		}
	})
	loop.RunPending()
	if len(rec.log) != 2 {
		t.Fatalf("%d withdraws reached the RIB as %d runs, want 2", ribBatchCap+1, len(rec.log))
	}
	for i, want := range []int{ribBatchCap, 1} {
		f := strings.Fields(rec.log[i])
		if f[0] != "delete_routes4" || f[1] != "ebgp" || len(f)-2 != want {
			t.Fatalf("run %d = %s %s with %d prefixes, want delete_routes4 ebgp with %d", i, f[0], f[1], len(f)-2, want)
		}
	}

	rec.log = nil
	loop.Dispatch(func() {
		s.Delete([]Route{sinkRoute("30.0.1.0/24", false)})
		s.Delete([]Route{sinkRoute("30.0.2.0/24", false)})
		s.Delete([]Route{sinkRoute("30.0.3.0/24", true)})
		s.Delete([]Route{sinkRoute("30.0.4.0/24", true)})
		s.Add([]Route{sinkRoute("30.0.5.0/24", true)})
		s.Add([]Route{sinkRoute("30.0.6.0/24", false), sinkRoute("30.0.7.0/24", false)})
	})
	loop.RunPending()
	want := []string{
		"delete_routes4 ebgp 30.0.1.0/24 30.0.2.0/24",
		"delete_routes4 ibgp 30.0.3.0/24 30.0.4.0/24",
		"add_routes4 ibgp 30.0.5.0/24",
		"add_routes4 ebgp 30.0.6.0/24 30.0.7.0/24",
	}
	if !reflect.DeepEqual(rec.log, want) {
		t.Fatalf("RIB saw\n  %q\nwant\n  %q", rec.log, want)
	}
}
