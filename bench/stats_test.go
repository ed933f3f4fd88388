package bench

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// The reference values are Python's statistics.quantiles(xs, n=4) and
// statistics.median(xs), the rule the benchmark's spreads are judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1}, 0, 3, 6},
		{[]float64{2.5, 9.75, 1.25, 4.0, 7.5, 3.0, 8.0}, 2.5, 4, 8},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, med, q3 := quartiles(tc.xs)
		if !near(q1, tc.q1) || !near(med, tc.med) || !near(q3, tc.q3) {
			t.Errorf("Quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, med, q3, tc.q1, tc.med, tc.q3)
		}
		if m := Median(tc.xs); !near(m, tc.med) {
			t.Errorf("Median(%v) = %v, want %v", tc.xs, m, tc.med)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, (8.25-2.75)/5.5) {
		t.Errorf("Spread = %v", got)
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{0, 0, false},
		{10, 0, false},
		{99, 0, false},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{999, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		p, ok := tailPercentile(tc.n)
		if p != tc.p || ok != tc.ok {
			t.Errorf("TailPercentile(%d) = %v %v, want %v %v", tc.n, p, ok, tc.p, tc.ok)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("Percentile(1..100, 90) = %v, want 90", got)
	}
	if got := percentile(xs, 100); got != 100 {
		t.Errorf("Percentile(1..100, 100) = %v, want 100", got)
	}
}

func TestBoundAllowance(t *testing.T) {
	setup := Bound{Rel: 0.25, Abs: absFloors["setup_s"]}
	// A 10 ms set-up may grow by the 50 ms floor, not just 2.5 ms.
	if got := setup.Allowed(0.010); !near(got, 0.05) {
		t.Errorf("setup floor: allowed %v, want 0.05", got)
	}
	if got := setup.Allowed(2); !near(got, 0.5) {
		t.Errorf("setup share: allowed %v, want 0.5", got)
	}
	if Verdict([]float64{0.010, 0.011, 0.012}, []float64{0.05, 0.05, 0.05}, "lower", setup) != VerdictSame {
		t.Error("a set-up time within the floor should be the same")
	}
	if Verdict([]float64{0.010, 0.011, 0.012}, []float64{0.07, 0.07, 0.07}, "lower", setup) != VerdictWorse {
		t.Error("a set-up time beyond the floor should be worse")
	}
	// An absolute bound of 0 (error_rate's) tolerates no worsening.
	if got := (Bound{}).Allowed(0); got != 0 {
		t.Errorf("zero bound allows %v", got)
	}
	if Verdict([]float64{0}, []float64{0.001}, "lower", Bound{}) != VerdictWorse {
		t.Error("a nonzero error rate should be worse")
	}
	if Verdict([]float64{0, 0, 0}, []float64{0, 0, 0}, "lower", Bound{}) != VerdictSame {
		t.Error("a zero error rate should be the same")
	}
	if worsening(10, 9, "higher") != 1 || worsening(10, 9, "lower") != -1 {
		t.Error("Worsening has the wrong sign")
	}
}

func TestVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, d float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x + d
		}
		return out
	}
	b10 := Bound{Rel: 0.10}
	for _, tc := range []struct {
		name   string
		base   []float64
		change []float64
		better string
		want   string
	}{
		{"noise only", base, shift(base, 0.5), "lower", VerdictSame},
		{"slower beyond bound", base, shift(base, 15), "lower", VerdictWorse},
		{"slower within bound", base, shift(base, 5), "lower", VerdictSame},
		{"faster beyond spread", base, shift(base, -5), "lower", VerdictBetter},
		{"higher is better", base, shift(base, 5), "higher", VerdictBetter},
		{"throughput drop", base, shift(base, -15), "higher", VerdictWorse},
		{"noisy parent", []float64{80, 120, 90, 110, 70, 130}, []float64{100, 100, 100, 100, 100, 100}, "lower", VerdictUnresolved},
		{"noisy parent, change beats every run", []float64{80, 120, 90, 110, 70, 130}, []float64{60, 61, 62, 63, 64, 65}, "lower", VerdictBetter},
		{"too few pairs won", base, []float64{90, 90, 90, 90, 90, 90, 90, 90, 105, 105}, "lower", VerdictSame},
		{"empty side", nil, base, "lower", VerdictUnresolved},
	} {
		if got := Verdict(tc.base, tc.change, tc.better, b10); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareSets(t *testing.T) {
	spec := &Spec{
		EndToEnd: []SpecMetric{
			{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.1},
			{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
		},
		PerLayer: []SpecMetric{
			{Name: "collect.instrs", Unit: "count", Better: "lower"},
			{Name: "collect.run_s", Unit: "s", Better: "lower"},
		},
	}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "w", Why: "test"})
	mk := func(walls []float64, failed int64, instrs float64) *Set {
		sw := &SetWorkload{}
		for _, w := range walls {
			sw.Runs = append(sw.Runs, Result{Attempted: 100, Failed: failed, Metrics: map[string]Value{
				"wall_s": {w, "s"}, "setup_s": {0.01, "s"},
			}})
		}
		sw.Traced = []Result{{Attempted: 100, Metrics: map[string]Value{
			"collect.instrs": {instrs, "count"}, "collect.run_s": {1, "s"},
		}}}
		return &Set{Workloads: map[string]*SetWorkload{"w": sw}}
	}
	base := mk([]float64{10, 10.1, 9.9, 10}, 0, 1000)
	verdicts := func(change *Set) map[string]string {
		out := make(map[string]string)
		for _, r := range Compare(spec, base, change) {
			out[r.Metric] = r.Verdict
		}
		return out
	}
	got := verdicts(mk([]float64{12, 12.1, 11.9, 12}, 0, 1000))
	if got["wall_s"] != VerdictWorse || got["setup_s"] != VerdictSame || got["error_rate"] != VerdictSame ||
		got["collect.instrs"] != VerdictSame || got["collect.run_s"] != "-" {
		t.Errorf("slower change: %v", got)
	}
	got = verdicts(mk([]float64{10, 10.1, 9.9, 10}, 1, 1001))
	if got["error_rate"] != VerdictWorse || got["collect.instrs"] != "changed" {
		t.Errorf("failing change: %v", got)
	}
	oneFailed := mk([]float64{10, 10.1, 9.9, 10}, 0, 1000)
	oneFailed.Workloads["w"].Runs[2].Failed = 1
	if got := verdicts(oneFailed); got["error_rate"] != VerdictWorse {
		t.Errorf("one failing run out of four: error_rate %s, want worse", got["error_rate"])
	}
	if rows := Compare(spec, base, &Set{}); len(rows) != 1 || rows[0].Verdict != VerdictUnresolved {
		t.Errorf("missing workload: %+v", rows)
	}
}
