package advisor_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"dsprof/internal/advisor"
	"dsprof/internal/analyzer"
	"dsprof/internal/core"
	"dsprof/internal/machine"
)

// loopMemo builds a deterministic closed loop once per GOMAXPROCS value
// and hands every test at that value the same run. Keying by GOMAXPROCS
// makes `go test -cpu 1,2` build and check the loop at each value:
// validation runs its re-runs on up to GOMAXPROCS goroutines, and the
// pinned report hashes must hold for every schedule.
type loopMemo struct {
	build func() (*core.AdviseRun, error)
	mu    sync.Mutex
	loops map[int]func() (*core.AdviseRun, error)
}

func (l *loopMemo) run(t *testing.T) *core.AdviseRun {
	t.Helper()
	procs := runtime.GOMAXPROCS(0)
	l.mu.Lock()
	if l.loops == nil {
		l.loops = make(map[int]func() (*core.AdviseRun, error))
	}
	loop, ok := l.loops[procs]
	if !ok {
		loop = sync.OnceValues(l.build)
		l.loops[procs] = loop
	}
	l.mu.Unlock()
	run, err := loop()
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// smokeLoop is the full closed loop at smoke scale: MCF at 120 trips on
// the scaled machine, advice, and validation re-runs. Both MCF loop
// tests share it.
var smokeLoop = loopMemo{build: func() (*core.AdviseRun, error) {
	cfg := machine.ScaledConfig()
	return core.Advise(context.Background(), core.AdviseParams{
		Study: core.StudyParams{
			Workload: core.MCF, Size: 120, Seed: 20030717,
			HWCProf: true, Machine: &cfg,
		},
		Intervals: core.MCF.Intervals(120),
		Advisor:   advisor.Options{MaxRecs: 10},
	})
}}

// checkCountGrading requires every re-run's After, the combined run's
// included, to equal the full reduction's total for the metric: the
// event-count grade is the number analyzer.New would report.
func checkCountGrading(t *testing.T, v *advisor.Validation) {
	t.Helper()
	runs := v.Results
	if v.Combined != nil {
		runs = append(slices.Clip(runs), *v.Combined)
	}
	for _, r := range runs {
		if r.Exp == nil {
			continue
		}
		a, err := analyzer.New(r.Exp)
		if err != nil {
			t.Fatal(err)
		}
		if want := a.Total().Events[v.Metric]; r.After != want {
			t.Errorf("%s re-run graded %d overflows, full reduction %d", r.Exp.Meta.Label, r.After, want)
		}
	}
}

// checkReportHash requires the loop report, rendered at 10 rows, to
// hash to a pinned literal: its bytes must not depend on how the
// validation re-runs were scheduled or on GOMAXPROCS. Never regenerate
// the literal to make a test pass.
func checkReportHash(t *testing.T, run *core.AdviseRun, want string) {
	t.Helper()
	var rep bytes.Buffer
	if err := run.WriteReport(&rep, 10); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(rep.Bytes())
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("loop report sha256 %s, want %s:\n%s", got, want, rep.Bytes())
	}
}

func TestAdvisorMCFClosedLoop(t *testing.T) {
	run := smokeLoop.run(t)

	// The advisor must propose transformations of the paper's hot
	// structs autonomously: a reorder or hot/cold split of arc or node.
	hot := false
	for _, r := range run.Advice.Recs {
		if (r.Struct == "arc" || r.Struct == "node") &&
			(r.Kind == advisor.KindReorder || r.Kind == advisor.KindSplit) {
			hot = true
		}
	}
	if !hot {
		t.Fatalf("no reorder/split of arc or node proposed: %+v", run.Advice.Recs)
	}

	// Validation must accept at least one recommendation and the
	// combined run must show a non-negative measured improvement with
	// identical program output.
	accepted := 0
	for _, r := range run.Valid.Results {
		if r.Verdict == advisor.VerdictAccepted {
			accepted++
			if !r.OutputOK {
				t.Errorf("accepted %s:%s with differing output", r.Rec.Kind, r.Rec.Struct)
			}
			if r.After > r.Before {
				t.Errorf("accepted %s:%s regressed %d -> %d", r.Rec.Kind, r.Rec.Struct, r.Before, r.After)
			}
		}
	}
	if accepted == 0 {
		t.Fatalf("no recommendation validated: %+v", run.Valid.Results)
	}
	c := run.Valid.Combined
	if c == nil || c.Verdict != advisor.VerdictAccepted {
		t.Fatalf("combined run not accepted: %+v", c)
	}
	if !c.OutputOK || c.After > c.Before {
		t.Errorf("combined run = %+v, want identical output and non-regressed overflows", c)
	}
	checkCountGrading(t, run.Valid)

	// The full report renders with verdict lines and the before/after
	// function comparison.
	var rep bytes.Buffer
	if err := run.WriteReport(&rep, 10); err != nil {
		t.Fatal(err)
	}
	out := rep.String()
	for _, want := range []string{"Data-layout advice", "Validation (", "accepted", "combine", "<Total>"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestAdvisorReportByteIdentical(t *testing.T) {
	run := smokeLoop.run(t)
	// The advice report goes through the analyzer's report registry, so
	// every consumer (dsadvise, erprint, profd HTTP) renders these exact
	// bytes. Two renderings over the same analyzer must be identical.
	var a, b bytes.Buffer
	if err := run.Baseline.Render(&a, "advice", analyzer.RenderOpts{TopN: 10}); err != nil {
		t.Fatal(err)
	}
	if err := run.Baseline.Render(&b, "advice", analyzer.RenderOpts{TopN: 10}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("advice report not deterministic")
	}
	// The "advice" report is registered and listed for CLI usage errors.
	if !analyzer.ValidReport("advice") {
		t.Error("advice report not registered")
	}
	if !strings.Contains(analyzer.ReportUsage(), "advice") {
		t.Error("advice report missing from usage listing")
	}
	// JSON rendering is exposed too.
	if _, err := run.Baseline.RenderJSON("advice", analyzer.RenderOpts{TopN: 10}); err != nil {
		t.Errorf("advice JSON rendering: %v", err)
	}
	// The whole loop report, validation verdicts and comparison
	// included, is pinned across commits.
	checkReportHash(t, run, "edad2a980c1526cc7077aec80e2f6bbc974ae32c750ae146ab2cb7076fbcac4e")
}
