package bench

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"dsprof/internal/advisor"
	"dsprof/internal/core"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// treeState maps every file of the repository outside .git and the
// benchmark's build directory to its size and modification time.
func treeState(t *testing.T, root string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		out[path] = fmt.Sprintf("%d %v %s", info.Size(), info.Mode(), info.ModTime().Format(time.RFC3339Nano))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func checkDefs(t *testing.T, kind string, defs []MetricDef, spec []SpecMetric) {
	t.Helper()
	if len(defs) != len(spec) {
		t.Fatalf("%s: dsbench reports %d metrics, BENCHMARK.json lists %d", kind, len(defs), len(spec))
	}
	for i, d := range defs {
		if d.Name != spec[i].Name || d.Unit != spec[i].Unit {
			t.Errorf("%s metric %d: dsbench %s (%s), BENCHMARK.json %s (%s)", kind, i, d.Name, d.Unit, spec[i].Name, spec[i].Unit)
		}
		if !metricName.MatchString(d.Name) || len(d.Name) > 64 {
			t.Errorf("%s metric name %q is not [A-Za-z0-9_.-]+", kind, d.Name)
		}
	}
}

func checkResult(t *testing.T, w string, res Result, defs []MetricDef, nonzero bool) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics reported, want %d", w, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok || v.Unit != d.Unit {
			t.Errorf("%s: metric %s: got %+v, want unit %s", w, d.Name, v, d.Unit)
		}
		if nonzero && v.Value <= 0 {
			t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, d.Name, v.Value)
		}
	}
}

// TestSmokeAllWorkloads runs every workload at the tiny preset with
// tracing on and checks what a run promises: the metric names and units
// BENCHMARK.json lists, a parseable trace, correct outputs, and no
// writes inside the repository.
func TestSmokeAllWorkloads(t *testing.T) {
	spec, err := ReadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	checkDefs(t, "end_to_end", EndToEnd, spec.EndToEnd)
	checkDefs(t, "per_layer", PerLayer, spec.PerLayer)
	if len(spec.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, dsbench runs %d", len(spec.Workloads), len(Workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != Workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %s, dsbench %s", i, w.Name, Workloads[i])
		}
	}

	before := treeState(t, "..")
	const seed = 20030717
	for _, w := range Workloads {
		var nb *nbodyAdvise
		rep, err := Run(Options{
			Workload: w, Seed: seed, preset: tiny, Trace: true, WorkDir: t.TempDir(),
			hooks: hooks{afterSetup: func(r *run) { nb, _ = r.w.(*nbodyAdvise) }},
		})
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
			t.Errorf("%s: correct %v, attempted %d, failed %d", w, rep.Correct, rep.Attempted, rep.Failed)
		}
		checkResult(t, w, rep.Select(true, false), EndToEnd, true)
		checkResult(t, w, rep.Select(false, true), PerLayer, false)

		var buf bytes.Buffer
		if err := WriteTrace(&buf, rep.Spans); err != nil {
			t.Fatal(err)
		}
		spans, err := ReadTrace(&buf)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if len(spans) == 0 {
			t.Errorf("%s: empty trace", w)
		}
		for _, s := range spans {
			if s.Self < 0 || s.End < s.Start || s.Workload != w {
				t.Errorf("%s: bad span %+v", w, s)
			}
		}

		if nb != nil {
			run, err := core.AdviseNBody(context.Background(), core.NBodyAdviseParams{
				Study:     nbodyStudy(tiny.AdvisePapers, seed),
				Intervals: nbodyIntervals,
				Advisor:   advisor.Options{},
			})
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if err := run.WriteReport(&want, adviceTopN); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(nb.report, want.Bytes()) {
				t.Errorf("nbody-advise report differs from core.AdviseNBody's:\n%s\nwant:\n%s", nb.report, want.Bytes())
			}
		}
	}
	after := treeState(t, "..")
	for path, st := range after {
		if before[path] != st {
			t.Errorf("the benchmark wrote %s inside the repository", path)
		}
	}
	for path := range before {
		if _, ok := after[path]; !ok {
			t.Errorf("the benchmark removed %s from the repository", path)
		}
	}
}
