package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// benchmarkFile mirrors BENCHMARK.json at the root of the repository.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// runChild runs this program once as a child process and returns the
// metrics of its result line.
func runChild(workload string, seed int64, seconds int) (map[string]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output() // waits for the child to end
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
	}
	var res struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("%s seed %d: run reported incorrect outputs", workload, seed)
	}
	vals := make(map[string]float64, len(res.Metrics))
	for name, m := range res.Metrics {
		vals[name] = m.Value
	}
	return vals, nil
}

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (exclusive method).
func quartiles(values []float64) (q [3]float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	for k := 1; k <= 3; k++ {
		pos := float64(k) * float64(len(s)+1) / 4
		lo := min(max(int(pos), 1), len(s)-1)
		q[k-1] = s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return q
}

// quartileSpread is the distance between the first and third quartile as
// a share of the median.
func quartileSpread(values []float64) float64 {
	q := quartiles(values)
	return (q[2] - q[0]) / q[1]
}

// runCalibrate runs two interleaved sets of n runs per workload, every
// run with another seed, and prints for each end-to-end metric the
// quartiles over all runs, the spread of each set and how far the second
// set's median is worse than the first's, against the bound in
// BENCHMARK.json. It is how the bounds
// and the amounts of work were chosen; rerun it after changing either.
func runCalibrate(cfg *config, n int, out io.Writer) error {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	if n < 4 {
		return fmt.Errorf("calibrate needs at least 4 runs per set for quartiles")
	}
	fmt.Fprintf(out, "%-12s %-20s %12s %12s %12s %12s %12s %9s %9s %9s %6s  %s\n",
		"workload", "metric", "q1", "median", "q3", "median A", "median B", "B worse", "spread A", "spread B", "bound", "verdict")
	bad := 0
	for _, w := range bf.Workloads {
		if cfg.workload != "" && cfg.workload != w.Name {
			continue
		}
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*n; i++ {
			vals, err := runChild(w.Name, cfg.seed+int64(i), bf.RunSeconds)
			if err != nil {
				return err
			}
			for name, v := range vals {
				sets[i%2][name] = append(sets[i%2][name], v)
			}
		}
		for _, m := range bf.EndToEnd {
			a, b := sets[0][m.Name], sets[1][m.Name]
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			sa, sb := quartileSpread(a), quartileSpread(b)
			verdict := "ok"
			switch {
			case worse > m.Bound || (m.Name != "setup_s" && math.Max(sa, sb) > m.Bound):
				verdict = "FAIL"
				bad++
			case math.Abs(worse) > m.Bound/2 || (m.Name != "setup_s" && math.Max(sa, sb) > m.Bound/3):
				verdict = "close"
			}
			q := quartiles(append(append([]float64(nil), a...), b...))
			fmt.Fprintf(out, "%-12s %-20s %12.6g %12.6g %12.6g %12.6g %12.6g %+8.2f%% %8.2f%% %8.2f%% %5.0f%%  %s\n",
				w.Name, m.Name, q[0], q[1], q[2], ma, mb, 100*worse, 100*sa, 100*sb, 100*m.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metrics outside their bound", bad)
	}
	return nil
}
