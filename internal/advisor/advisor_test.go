package advisor_test

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"

	"dsprof/internal/advisor"
	"dsprof/internal/analyzer"
	"dsprof/internal/core"
	"dsprof/internal/machine"
)

// adviseSmoke runs the full closed loop once per test binary: MCF at
// smoke scale on the scaled machine, advice, and validation re-runs.
// The run is deterministic, so both tests share one loop.
var smokeOnce sync.Once
var smokeRun *core.AdviseRun
var smokeErr error

func adviseSmoke(t *testing.T) *core.AdviseRun {
	t.Helper()
	smokeOnce.Do(func() {
		cfg := machine.ScaledConfig()
		smokeRun, smokeErr = core.Advise(context.Background(), core.AdviseParams{
			Study: core.StudyParams{
				Workload: core.MCF, Size: 120, Seed: 20030717,
				HWCProf: true, Machine: &cfg,
			},
			Intervals: core.MCF.Intervals(120),
			Advisor:   advisor.Options{MaxRecs: 10},
		})
	})
	if smokeErr != nil {
		t.Fatal(smokeErr)
	}
	return smokeRun
}

func TestAdvisorMCFClosedLoop(t *testing.T) {
	run := adviseSmoke(t)

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
	run := adviseSmoke(t)
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
}
