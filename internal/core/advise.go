package core

import (
	"context"
	"fmt"
	"io"

	"dsprof/internal/advisor"
	"dsprof/internal/analyzer"
	"dsprof/internal/cc"
	"dsprof/internal/nbody"
)

// advise.go is the closed-loop advisor harness shared by cmd/dsadvise
// and internal/profd: profile a baseline, run the data-layout advisor
// over it, and validate every recommendation with a measured re-run.
// Every bundled workload plugs into the same loop.

// AdviseParams configure one closed advisor loop.
type AdviseParams struct {
	Study     StudyParams
	Intervals PaperIntervals // baseline collection intervals
	Advisor   advisor.Options
}

// AdviseRun is a completed loop: baseline profile, ranked advice, and
// the measured validation of each recommendation.
type AdviseRun struct {
	Baseline *analyzer.Analyzer
	Advice   *advisor.Advice
	Valid    *advisor.Validation
}

// Advise runs the full closed loop on a bundled workload: baseline
// two-experiment profile (the paper's A+B collection), a check of the
// baseline's output, advisor analysis, and one validation re-run per
// distinct override set plus a combined run. The workloads' output
// vectors are layout invariant, so the validation's output-identity
// gate applies unchanged.
func Advise(ctx context.Context, p AdviseParams) (*AdviseRun, error) {
	target, err := p.Study.Target()
	if err != nil {
		return nil, err
	}
	prog, err := cc.Compile(target.Sources, target.Options)
	if err != nil {
		return nil, err
	}
	a, resA, _, err := ProfilePaperStyle(prog, target.Input, target.Machine, p.Intervals)
	if err != nil {
		return nil, err
	}
	if err := p.Study.Workload.Check(resA.Machine.OutputLongs()); err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	adv, err := advisor.Analyze(a, p.Advisor)
	if err != nil {
		return nil, err
	}
	valid, err := advisor.Validate(ctx, target, adv, a)
	if err != nil {
		return nil, err
	}
	return &AdviseRun{Baseline: a, Advice: adv, Valid: valid}, nil
}

// WriteReport renders the loop's report: the advice report (through the
// analyzer's report registry, so it is byte-identical to erprint's and
// profd's "advice" rendering) followed by the validation verdicts and
// the before/after function comparison.
func (r *AdviseRun) WriteReport(w io.Writer, topN int) error {
	if err := r.Baseline.Render(w, "advice", analyzer.RenderOpts{TopN: topN}); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return r.Valid.Render(w, r.Baseline, topN)
}

// The names below exist for dsbench (bench/), which calls them; each
// delegates to the generic API above. They go with the next change to
// the benchmark.

// NBodyStudyParams configure one n-body study.
type NBodyStudyParams struct {
	Papers  int
	Seed    uint64
	Variant nbody.Variant
	HWCProf bool
}

func (p NBodyStudyParams) study() StudyParams {
	return StudyParams{Workload: NBody, Layout: p.Variant.String(), Size: p.Papers, Seed: p.Seed, HWCProf: p.HWCProf}
}

// NBodyAdviseParams configure one closed advisor loop on n-body.
type NBodyAdviseParams struct {
	Study     NBodyStudyParams
	Intervals PaperIntervals
	Advisor   advisor.Options
}

// NBodyTarget is StudyParams.Target for an n-body study.
func NBodyTarget(p NBodyStudyParams) advisor.Target {
	t, _ := p.study().Target() // every Variant names a layout
	return t
}

// NBodyIntervals is NBody.Intervals.
func NBodyIntervals(papers int) PaperIntervals { return NBody.Intervals(papers) }

// AdviseNBody is Advise on an n-body study.
func AdviseNBody(ctx context.Context, p NBodyAdviseParams) (*AdviseRun, error) {
	return Advise(ctx, AdviseParams{Study: p.Study.study(), Intervals: p.Intervals, Advisor: p.Advisor})
}
