package bench

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// TestLoadGridSpec pins the committed experiments.json: both named
// grids (CI's smoke runs "quick") parse and name exactly the fig9 and
// spf experiments.
func TestLoadGridSpec(t *testing.T) {
	for _, name := range []string{"quick", "full"} {
		cells, err := LoadGrid("../../experiments.json", name)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, c := range cells {
			seen[c.Experiment] = true
		}
		if want := map[string]bool{"fig9": true, "spf": true}; !reflect.DeepEqual(seen, want) {
			t.Errorf("grid %q names experiments %v, want exactly fig9 and spf", name, seen)
		}
	}
	if _, err := LoadGrid("../../experiments.json", "nope"); err == nil {
		t.Fatal("unknown grid name did not error")
	}
	// The traced table load and the forwarding-worker matrix are gone (the
	// repo benchmark's bulk and forward workloads measure them); a cell
	// still asking for either must fail, not be skipped.
	for _, exp := range []string{"tableload", "forward"} {
		cell := GridCell{Experiment: exp, Params: map[string]any{"routes": float64(10)}}
		if _, err := RunGrid([]GridCell{cell}, nil); err == nil {
			t.Errorf("grid cell %q still accepted", exp)
		}
	}
}

// TestRunGridAggregates runs a tiny in-memory grid with repeats and
// checks the CSV summary carries per-metric repeat counts and ordered
// min/mean/max.
func TestRunGridAggregates(t *testing.T) {
	cells := []GridCell{
		{Experiment: "spf", Params: map[string]any{"routers": float64(16), "iters": float64(2)}, Repeats: 3},
		{Experiment: "fig9", Params: map[string]any{"transport": "intra", "total": float64(200)}},
	}
	rows, err := RunGrid(cells, nil)
	if err != nil {
		t.Fatal(err)
	}
	byMetric := map[string]GridRow{}
	for _, r := range rows {
		byMetric[r.Experiment+"/"+r.Metric] = r
		if r.Min > r.Mean || r.Mean > r.Max {
			t.Errorf("%s/%s: min %g mean %g max %g out of order", r.Experiment, r.Metric, r.Min, r.Mean, r.Max)
		}
		if r.Stddev < 0 {
			t.Errorf("%s/%s: negative stddev", r.Experiment, r.Metric)
		}
	}
	if got := byMetric["spf/full_us"].Repeats; got != 3 {
		t.Errorf("spf repeats = %d, want 3", got)
	}
	if got := byMetric["fig9/xrls_per_sec"].Repeats; got != 1 {
		t.Errorf("fig9 repeats = %d, want 1 (default)", got)
	}
	if got := byMetric["spf/full_us"].Params; got != "iters=2;routers=16" {
		t.Errorf("params rendered %q", got)
	}

	csv := WriteGridCSV(rows)
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if lines[0] != "experiment,params,metric,repeats,mean,stddev,min,max" {
		t.Fatalf("bad header %q", lines[0])
	}
	if len(lines) != len(rows)+1 {
		t.Fatalf("%d CSV lines for %d rows", len(lines), len(rows))
	}
	for _, l := range lines[1:] {
		fields := strings.Split(l, ",")
		if len(fields) != 8 {
			t.Fatalf("row %q has %d fields", l, len(fields))
		}
		for _, f := range fields[4:] {
			if _, err := strconv.ParseFloat(f, 64); err != nil {
				t.Errorf("row %q: non-numeric %q", l, f)
			}
		}
	}
}
