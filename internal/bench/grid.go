package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"xorp/internal/telemetry"
)

// ---------------------------------------------------------------------
// Experiment grid: a reproducible experiment × params × repeats matrix
// driven by a JSON spec (experiments.json at the repo root). Every cell
// runs `repeats` times; every metric a cell emits is aggregated with a
// Welford RunningStat, so the summary CSV carries mean/stddev/min/max
// per metric — the error bars the single-shot bench modes lack.
// ---------------------------------------------------------------------

// GridCell is one experiment configuration in the grid.
type GridCell struct {
	Experiment string         `json:"experiment"`
	Params     map[string]any `json:"params,omitempty"`
	Repeats    int            `json:"repeats,omitempty"`
}

// GridFile is the experiments.json layout: named grids (e.g. "quick"
// for CI smoke, "full" for paper-scale regeneration).
type GridFile struct {
	Grids map[string][]GridCell `json:"grids"`
}

// GridRow is one aggregated metric of one cell.
type GridRow struct {
	Experiment string  `json:"experiment"`
	Params     string  `json:"params"`
	Metric     string  `json:"metric"`
	Repeats    int     `json:"repeats"`
	Mean       float64 `json:"mean"`
	Stddev     float64 `json:"stddev"`
	Min        float64 `json:"min"`
	Max        float64 `json:"max"`
}

// LoadGrid reads experiments.json and selects the named grid.
func LoadGrid(path, name string) ([]GridCell, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f GridFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	cells, ok := f.Grids[name]
	if !ok {
		names := make([]string, 0, len(f.Grids))
		for n := range f.Grids {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("bench: no grid %q in %s (have %s)", name, path, strings.Join(names, ", "))
	}
	return cells, nil
}

// RunGrid executes every cell and returns one row per (cell, metric),
// stably ordered. log, when non-nil, receives one progress line per
// cell repeat.
func RunGrid(cells []GridCell, log func(string)) ([]GridRow, error) {
	var rows []GridRow
	for _, cell := range cells {
		repeats := cell.Repeats
		if repeats <= 0 {
			repeats = 1
		}
		stats := make(map[string]*telemetry.RunningStat)
		var order []string
		for rep := 0; rep < repeats; rep++ {
			if log != nil {
				log(fmt.Sprintf("%s %s repeat %d/%d", cell.Experiment, formatParams(cell.Params), rep+1, repeats))
			}
			metrics, err := runGridCell(cell)
			if err != nil {
				return nil, fmt.Errorf("bench: grid cell %s %s: %w", cell.Experiment, formatParams(cell.Params), err)
			}
			for _, m := range metrics {
				st, ok := stats[m.name]
				if !ok {
					st = &telemetry.RunningStat{}
					stats[m.name] = st
					order = append(order, m.name)
				}
				st.Push(m.value)
			}
		}
		params := formatParams(cell.Params)
		for _, name := range order {
			st := stats[name]
			rows = append(rows, GridRow{
				Experiment: cell.Experiment,
				Params:     params,
				Metric:     name,
				Repeats:    int(st.Count()),
				Mean:       st.Mean(),
				Stddev:     st.Stddev(),
				Min:        st.Min(),
				Max:        st.Max(),
			})
		}
	}
	return rows, nil
}

// WriteGridCSV renders the summary rows as CSV. Params use semicolons
// so the column needs no quoting.
func WriteGridCSV(rows []GridRow) string {
	var b strings.Builder
	b.WriteString("experiment,params,metric,repeats,mean,stddev,min,max\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%s,%s,%s,%d,%g,%g,%g,%g\n",
			r.Experiment, r.Params, r.Metric, r.Repeats, r.Mean, r.Stddev, r.Min, r.Max)
	}
	return b.String()
}

// gridMetric preserves emission order (maps would shuffle the CSV).
type gridMetric struct {
	name  string
	value float64
}

// runGridCell dispatches one repeat of one cell to the experiment
// runners and flattens the result into named metrics.
func runGridCell(cell GridCell) ([]gridMetric, error) {
	p := cell.Params
	switch cell.Experiment {
	case "fig9":
		res, err := RunFig9(strParam(p, "transport", "intra"),
			intParam(p, "nargs", 4), intParam(p, "total", 10000), intParam(p, "window", 100))
		if err != nil {
			return nil, err
		}
		return []gridMetric{
			{"xrls_per_sec", res.XRLsPerSec},
			{"allocs_per_xrl", res.AllocsPerXRL},
			{"syscalls_per_xrl", res.SyscallsPerXRL},
		}, nil

	case "spf":
		res, err := RunSPF(intParam(p, "routers", 100), intParam(p, "iters", 20))
		if err != nil {
			return nil, err
		}
		return []gridMetric{
			{"full_us", float64(res.Full.Nanoseconds()) / 1e3},
			{"incremental_us", float64(res.Incremental.Nanoseconds()) / 1e3},
			{"speedup", float64(res.Full) / float64(res.Incremental)},
		}, nil

	default:
		return nil, fmt.Errorf("unknown experiment %q", cell.Experiment)
	}
}

// formatParams renders params canonically: sorted k=v joined by ';'.
func formatParams(p map[string]any) string {
	if len(p) == 0 {
		return "-"
	}
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		v := p[k]
		if f, ok := v.(float64); ok && f == float64(int64(f)) {
			parts[i] = fmt.Sprintf("%s=%d", k, int64(f))
		} else {
			parts[i] = fmt.Sprintf("%s=%v", k, v)
		}
	}
	return strings.Join(parts, ";")
}

func intParam(p map[string]any, key string, def int) int {
	if v, ok := p[key]; ok {
		if f, ok := v.(float64); ok {
			return int(f)
		}
	}
	return def
}

func strParam(p map[string]any, key, def string) string {
	if v, ok := p[key]; ok {
		if s, ok := v.(string); ok {
			return s
		}
	}
	return def
}
