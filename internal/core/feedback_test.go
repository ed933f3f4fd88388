package core

import (
	"strings"
	"testing"

	"dsprof/internal/cc"
	"dsprof/internal/collect"
	"dsprof/internal/hwc"
	"dsprof/internal/isa"
	"dsprof/internal/mcf"
)

// The §4 feedback-directed prefetching loop, end to end: profile, build
// the feedback file, recompile with prefetch insertion, and verify the
// recompiled program is faster (in this model prefetch completion is
// immediate, so the gain is an upper bound) while computing the same
// answer.
func TestPrefetchFeedbackLoop(t *testing.T) {
	s := studyForTest(t)
	fb := s.Analyzer.PrefetchFeedback(0.01)
	if len(fb["mcf.mc"]) == 0 {
		t.Fatalf("no feedback lines for mcf.mc: %v", fb)
	}

	var rendered strings.Builder
	s.Analyzer.WriteFeedbackFile(&rendered, 0.01)
	if !strings.Contains(rendered.String(), "mcf.mc:") {
		t.Errorf("feedback file malformed:\n%s", rendered.String())
	}

	// Recompile with the feedback.
	prog, err := mcf.Program(mcf.LayoutPaper, cc.Options{HWCProf: true, PrefetchFeedback: fb})
	if err != nil {
		t.Fatal(err)
	}
	nPrefetch := 0
	for _, in := range prog.Text {
		if in.Op == isa.Prefetch {
			nPrefetch++
		}
	}
	if nPrefetch == 0 {
		t.Fatal("feedback compilation inserted no prefetches")
	}

	ins := mcf.Generate(mcf.DefaultGenParams(testTrips, s.Params.Seed))
	cfg := *s.Params.Machine
	m, err := RunOnce(prog, ins.Encode(), &cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := mcf.ParseOutput(m.OutputLongs())
	if err != nil {
		t.Fatal(err)
	}
	if out.Cost != s.Output.Cost || out.Pivots != s.Output.Pivots {
		t.Fatalf("prefetch insertion changed results: %+v vs %+v", out, s.Output)
	}
	if m.Stats().Cycles >= s.Cycles {
		t.Errorf("prefetching did not reduce cycles: %d >= %d", m.Stats().Cycles, s.Cycles)
	}
	t.Logf("prefetch feedback: %d prefetches inserted, %.1f%% cycle reduction (upper bound)",
		nPrefetch, 100*(float64(s.Cycles)-float64(m.Stats().Cycles))/float64(s.Cycles))
}

func TestFeedbackEmptyWithoutMissData(t *testing.T) {
	prog, err := Compile("t", []cc.Source{{Name: "t.mc", Text: "long main() { return 0; }"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := StudyMachine()
	res, err := CollectRun(t.Context(), prog, "", collect.Options{ClockProfile: true, Machine: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(res.Exp)
	if err != nil {
		t.Fatal(err)
	}
	if fb := a.PrefetchFeedback(0.01); fb != nil {
		t.Errorf("feedback without miss data: %v", fb)
	}
	var b strings.Builder
	a.WriteFeedbackFile(&b, 0.01)
	if !strings.Contains(b.String(), "no E$ read-miss data") {
		t.Errorf("feedback file should note missing data: %q", b.String())
	}
	_ = hwc.EvECRdMiss
}
