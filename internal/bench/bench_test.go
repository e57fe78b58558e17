package bench

import (
	"testing"
	"time"
)

// These are correctness smoke tests of the experiment harness itself (the
// performance numbers come from xorp_bench).

func TestFig9IntraSmoke(t *testing.T) {
	res, err := RunFig9("intra", 3, 500, 50)
	if err != nil {
		t.Fatal(err)
	}
	if res.XRLsPerSec <= 0 || res.Elapsed <= 0 {
		t.Fatalf("degenerate result %+v", res)
	}
}

func TestFig9RejectsUnknownTransport(t *testing.T) {
	if _, err := RunFig9("carrier-pigeon", 0, 10, 1); err == nil {
		t.Fatal("unknown transport accepted")
	}
}

func TestLatencySmoke(t *testing.T) {
	res, err := RunLatency("smoke", 0, 8, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerRoute) != 8 {
		t.Fatalf("measured %d routes, want 8", len(res.PerRoute))
	}
	if len(res.Stats) != len(PointNames) {
		t.Fatalf("%d stats rows", len(res.Stats))
	}
	// Deltas must be monotone through the pipeline on average: the kernel
	// point comes last.
	last := res.Stats[len(res.Stats)-1]
	if last.Avg <= 0 {
		t.Fatalf("kernel avg %.3f ms not positive", last.Avg)
	}
	for i := 1; i < len(res.Stats); i++ {
		if res.Stats[i].Avg+1e-9 < res.Stats[i-1].Avg {
			t.Fatalf("point %q avg %.4f < previous %.4f — pipeline order broken",
				res.Stats[i].Label, res.Stats[i].Avg, res.Stats[i-1].Avg)
		}
	}
	if FormatLatencyTable(res) == "" {
		t.Fatal("empty table")
	}
}

func TestLatencyWithPreloadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("preload smoke skipped in -short")
	}
	res, err := RunLatency("smoke-preload", 2000, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Preload != 2000 || len(res.PerRoute) != 4 {
		t.Fatalf("result %+v", res)
	}
}

func TestFig13Shape(t *testing.T) {
	series := RunFig13(255, time.Second)
	if len(series) != 4 {
		t.Fatalf("%d series", len(series))
	}
	byName := map[string]int{}
	for i, s := range series {
		byName[s.Router] = i
		if len(s.Samples) != 255 {
			t.Fatalf("%s propagated %d/255", s.Router, len(s.Samples))
		}
	}
	xorp := series[byName["XORP"]]
	cisco := series[byName["Cisco"]]
	// The paper's claims: XORP's delay never exceeds one second; the
	// scanner routers show delays up to the 30 s scan interval.
	if xorp.MaxDelay() > time.Second {
		t.Fatalf("XORP max delay %v", xorp.MaxDelay())
	}
	if cisco.MaxDelay() < 25*time.Second {
		t.Fatalf("Cisco max delay %v, want near 30s", cisco.MaxDelay())
	}
	if FormatFig13(series) == "" || Fig13Points(xorp) == "" {
		t.Fatal("formatting failed")
	}
}

func TestMemorySmoke(t *testing.T) {
	res, err := RunMemory(5000)
	if err != nil {
		t.Fatal(err)
	}
	if res.BGPHeapMB <= 0 || res.BGPAndRIBHeapMB < res.BGPHeapMB {
		t.Fatalf("implausible memory result %+v", res)
	}
}
