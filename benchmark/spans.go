package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Span names. Spans are recorded from the benchmark's own files, around
// the calls into each layer that can be reached from outside the program.
const (
	spanTxn       = iota // one transaction
	spanDecode           // bgp.DecodeMessage of the txn's wire bytes
	spanDrain            // Router.SettleAll / Loop.RunPending
	spanBGPInject        // the dispatched bgp.Process.InjectUpdate closure
	spanRIBBatch         // the dispatched rib.Process.DeleteRoutes/AddRoutes closure
	spanFwdApply         // fwd.Backend calls made by the FEA
	spanPeerIn           // bgp.PeerIn.ReceiveUpdate (route server)
	spanLookup           // the Snapshot.Lookup burst
	spanXRLWindow        // dispatch of a pipelined XRL txn until its last reply
	spanCheck            // the benchmark's own output checks, outside the timed sections
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"txn", "bgp_decode", "drain", "bgp_inject", "rib_batch", "fwd_apply",
	"bgp_peerin", "lookup", "xrl_window", "check",
}

// span is one recorded interval: name, start, end, the span that caused
// it, and the transaction both belong to.
type span struct {
	name       uint8
	txn        int32
	parent     int32 // index of the enclosing span, -1 for a txn
	start, end int64 // ns since the recorder was created
}

// recorder keeps spans in memory; they are written out when the run
// ends. It is used from the benchmark goroutine only (which also drives
// the event loops of every traced workload), so begin/end nest strictly.
type recorder struct {
	t0    time.Time
	spans []span
	stack []int32
	txn   int32
}

func newRecorder(capacity int) *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span under the innermost open one. A nil recorder
// records nothing, so untraced passes pay one branch per call site.
func (r *recorder) begin(name uint8) int32 {
	if r == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	idx := int32(len(r.spans))
	r.spans = append(r.spans, span{name: name, txn: r.txn, parent: parent, start: int64(time.Since(r.t0))})
	r.stack = append(r.stack, idx)
	return idx
}

func (r *recorder) end(idx int32) {
	if r == nil {
		return
	}
	r.spans[idx].end = int64(time.Since(r.t0))
	r.stack = r.stack[:len(r.stack)-1]
}

// beginTxn opens the root span of transaction i.
func (r *recorder) beginTxn(i int) int32 {
	if r == nil {
		return -1
	}
	r.txn = int32(i)
	return r.begin(spanTxn)
}

// selfTimes returns, per span name, the summed self time: a span's
// duration minus the part of it its child spans cover.
func (r *recorder) selfTimes() (self [numSpanNames]time.Duration) {
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range r.spans {
		self[s.name] += time.Duration(s.end - s.start - child[i])
	}
	return self
}

// write stores the spans as CSV under dir.
func (r *recorder) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "spans_"+workload+".csv")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "span,name,txn,parent,start_ns,end_ns")
	for i, s := range r.spans {
		fmt.Fprintf(w, "%d,%s,%d,%d,%d,%d\n", i, spanNames[s.name], s.txn, s.parent, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
