package main

import (
	"bytes"
	"encoding/json"
	"math"
	"regexp"
	"strings"
	"testing"
)

func quickConfig(t *testing.T, workload string, seed int64, trace bool) *config {
	return &config{workload: workload, seed: seed, seconds: 1, trace: trace, quick: true,
		outDir: t.TempDir(), sizes: quickSizes}
}

func mustRun(t *testing.T, cfg *config) (*result, string) {
	t.Helper()
	var out bytes.Buffer
	res, err := run(cfg, &out)
	if err != nil {
		t.Fatalf("%s: %v\n%s", cfg.workload, err, out.String())
	}
	return res, out.String()
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkReport holds one run's report against the names BENCHMARK.json
// declares: every name printed exactly once with a finite value and its
// unit, and no metric printed that the file lacks.
func checkReport(t *testing.T, what string, res *result, text string, want map[string]string) {
	t.Helper()
	var line struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(resultLine(res)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("%s: result line: %v", what, err)
	}
	if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", what, line.Correct, line.Attempted, line.Failed)
	}
	if len(res.metrics) != len(line.Metrics) {
		t.Errorf("%s: %d metrics measured, %d distinct names in the result line", what, len(res.metrics), len(line.Metrics))
	}
	for name, m := range line.Metrics {
		unit, ok := want[name]
		switch {
		case !ok:
			t.Errorf("%s: prints %s, which BENCHMARK.json lacks", what, name)
		case m.Unit != unit:
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", what, name, m.Unit, unit)
		case m.Value == nil || math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0):
			t.Errorf("%s: %s has no finite value", what, name)
		}
		if !nameRE.MatchString(name) {
			t.Errorf("%s: bad metric name %q", what, name)
		}
	}
	for name := range want {
		if _, ok := line.Metrics[name]; !ok {
			t.Errorf("%s: %s is in BENCHMARK.json but not printed", what, name)
		}
		if n := strings.Count("\n"+text, "\n"+name+" "); n != 1 {
			t.Errorf("%s: %s printed %d times in the report", what, name, n)
		}
	}
}

// TestSmoke runs all five workloads, untraced and traced, at -quick sizes
// and holds what they print against BENCHMARK.json.
func TestSmoke(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer := map[string]string{}, map[string]string{}
	for _, m := range bf.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Fatalf("BENCHMARK.json names workload %q, which the program lacks", w.Name)
		}
		res, text := mustRun(t, quickConfig(t, w.Name, 1, false))
		checkReport(t, w.Name, res, text, endToEnd)
		res, text = mustRun(t, quickConfig(t, w.Name, 1, true))
		checkReport(t, w.Name+" traced", res, text, perLayer)
		if !strings.Contains(text, "layer budget for "+w.Name) || !strings.Contains(text, "residual") {
			t.Errorf("%s traced: no layer budget table", w.Name)
		}
	}
}

var digestRE = regexp.MustCompile(`(?m)^input_digest ([0-9a-f]{32})$`)

// TestDeterminism: the same seed gives the same inputs and op counts,
// another seed gives other inputs.
func TestDeterminism(t *testing.T) {
	for _, w := range workloads {
		digest := func(seed int64) (string, int) {
			res, text := mustRun(t, quickConfig(t, w.name, seed, false))
			m := digestRE.FindStringSubmatch(text)
			if m == nil {
				t.Fatalf("%s: no input_digest in\n%s", w.name, text)
			}
			return m[1], res.attempted
		}
		d1, ops1 := digest(7)
		d2, ops2 := digest(7)
		d3, _ := digest(8)
		if d1 != d2 || ops1 != ops2 {
			t.Errorf("%s: seed 7 gave digest %s with %d ops, then %s with %d", w.name, d1, ops1, d2, ops2)
		}
		if d1 == d3 {
			t.Errorf("%s: seeds 7 and 8 gave the same digest %s", w.name, d1)
		}
	}
}

// TestWrongOutputFailsRun corrupts one next hop the generator expects
// and requires the run to count failed ops and exit non-zero.
func TestWrongOutputFailsRun(t *testing.T) {
	for _, name := range []string{"bulk", "trickle"} {
		cfg := quickConfig(t, name, 1, false)
		cfg.corruptExpected = true
		res, _ := mustRun(t, cfg)
		if res.failed == 0 || res.exitCode() == 0 {
			t.Errorf("%s: corrupted expectation gave failed=%d exit=%d", name, res.failed, res.exitCode())
		}
		if !strings.Contains(resultLine(res), `"correct":false`) {
			t.Errorf("%s: result line claims correct outputs: %s", name, resultLine(res))
		}
	}
}

// TestQuartileSpread pins the quartile rule to Python's
// statistics.quantiles(values, n=4): for 1..10 it gives 2.75, 5.5, 8.25.
func TestQuartileSpread(t *testing.T) {
	got := quartileSpread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if want := (8.25 - 2.75) / 5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread(1..10) = %v, want %v", got, want)
	}
}

// TestBenchmarkFileContract checks BENCHMARK.json against the limits the
// driver refuses a file for.
func TestBenchmarkFileContract(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if n := len(bf.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range bf.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is not one line of at most 200 characters", w.Name)
		}
	}
	setup := false
	for _, m := range bf.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: unit %q better %q bound %v", m.Name, m.Unit, m.Better, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	if n := len(bf.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per_layer metrics", n)
	}
	for _, m := range bf.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per_layer %s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d", bf.RunSeconds)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "benchmark" {
		t.Errorf("paths %v", bf.Paths)
	}
	if len(bf.Command) != 2 || bf.Command[0] != "bash" || bf.Command[1] != "benchmark/run.sh" {
		t.Errorf("command %v", bf.Command)
	}
}
