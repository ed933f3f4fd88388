package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"text/tabwriter"
)

// Spec is the part of BENCHMARK.json the comparison reads.
type Spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []SpecMetric `json:"end_to_end"`
	PerLayer []SpecMetric `json:"per_layer"`
}

// SpecMetric is one metric entry of BENCHMARK.json.
type SpecMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// absFloors are absolute allowances that apply on top of a metric's
// relative bound: set-up times are short enough that a share of them
// is below the host's timer noise.
var absFloors = map[string]float64{"setup_s": 0.05}

// Set is the file dsbench -o writes: untraced and traced runs of each
// workload, alternating.
type Set struct {
	Seed      uint64                  `json:"seed"`
	Seconds   float64                 `json:"seconds"`
	Host      Host                    `json:"host"`
	Workloads map[string]*SetWorkload `json:"workloads"`
}

// Host records where a set was measured.
type Host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

// SetWorkload holds one workload's runs in a set. Every metric is in
// every run; per-layer times are only measured in the traced runs.
type SetWorkload struct {
	Runs   []Result `json:"runs"`
	Traced []Result `json:"traced"`
	// TracingOverheadPct is the traced runs' median wall_s over the
	// untraced runs', in percent.
	TracingOverheadPct float64 `json:"tracing_overhead_pct"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// ReadSpec reads BENCHMARK.json.
func ReadSpec(path string) (*Spec, error) {
	var s Spec
	return &s, readJSON(path, &s)
}

// ReadSet reads a set file written by dsbench -o.
func ReadSet(path string) (*Set, error) {
	var s Set
	return &s, readJSON(path, &s)
}

// Row is one (workload, metric) line of a comparison.
type Row struct {
	Workload, Metric, Unit string
	Base, Change           [3]float64 // q1, median, q3
	N                      [2]int
	Verdict                string
}

// Values returns the metric's value in each run that reported it;
// "error_rate" is derived from each run's failed and attempted counts.
func Values(runs []Result, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if metric == "error_rate" {
			out = append(out, r.ErrorRate())
			continue
		}
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

func quart(xs []float64) [3]float64 {
	q1, med, q3 := quartiles(xs)
	return [3]float64{q1, med, q3}
}

// Compare compares two sets metric by metric. End-to-end metrics get a
// Verdict against their bound; the error rate has an absolute bound of
// 0 and is judged by its worst run. Per-layer counts must be identical
// in every traced run of both sets ("same") or are "changed"; other
// per-layer metrics have no bound and are listed for attribution only
// ("-").
func Compare(spec *Spec, base, change *Set) []Row {
	var rows []Row
	for _, wl := range spec.Workloads {
		b, c := base.Workloads[wl.Name], change.Workloads[wl.Name]
		if b == nil || c == nil {
			rows = append(rows, Row{Workload: wl.Name, Metric: "(missing)", Verdict: VerdictUnresolved})
			continue
		}
		metrics := append([]SpecMetric{{Name: "error_rate", Unit: "ratio", Better: "lower"}}, spec.EndToEnd...)
		for _, m := range metrics {
			bv, cv := Values(b.Runs, m.Name), Values(c.Runs, m.Name)
			verdict := Verdict(bv, cv, m.Better, Bound{Rel: m.Bound, Abs: absFloors[m.Name]})
			if m.Name == "error_rate" {
				// A median would hide a run that failed: judge the worst run.
				verdict = Verdict([]float64{slices.Max(append(bv, 0))}, []float64{slices.Max(append(cv, 0))}, "lower", Bound{})
			}
			rows = append(rows, Row{
				Workload: wl.Name, Metric: m.Name, Unit: m.Unit,
				Base: quart(bv), Change: quart(cv), N: [2]int{len(bv), len(cv)},
				Verdict: verdict,
			})
		}
		for _, m := range spec.PerLayer {
			bv, cv := Values(b.Traced, m.Name), Values(c.Traced, m.Name)
			verdict := "-"
			if m.Unit == "count" {
				verdict = VerdictSame
				if len(bv) == 0 || len(cv) == 0 || slices.Min(bv) != slices.Max(cv) || slices.Max(bv) != slices.Min(cv) {
					verdict = "changed"
				}
			}
			rows = append(rows, Row{
				Workload: wl.Name, Metric: m.Name, Unit: m.Unit,
				Base: quart(bv), Change: quart(cv), N: [2]int{len(bv), len(cv)},
				Verdict: verdict,
			})
		}
	}
	return rows
}

// WriteRows prints a comparison as an aligned table.
func WriteRows(w io.Writer, rows []Row) error {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase median [q1, q3] (n)\tchange median [q1, q3] (n)\tdelta\tverdict")
	for _, r := range rows {
		delta := "-"
		if r.Base[1] != 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(r.Change[1]-r.Base[1])/r.Base[1])
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g [%.6g, %.6g] (%d)\t%.6g [%.6g, %.6g] (%d)\t%s\t%s\n",
			r.Workload, r.Metric, r.Unit,
			r.Base[1], r.Base[0], r.Base[2], r.N[0],
			r.Change[1], r.Change[0], r.Change[2], r.N[1], delta, r.Verdict)
	}
	return tw.Flush()
}
