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
// Every bundled workload plugs into the same loop. Advise collects the
// baseline in process; AdviseFrom is the rest of the loop, for callers
// that collect the baseline their own way (profd runs it as scheduler
// jobs).

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
// two-experiment profile (the paper's A+B collection), then AdviseFrom.
// The loop stops with the context's error as soon as ctx is cancelled.
func Advise(ctx context.Context, p AdviseParams) (*AdviseRun, error) {
	target, err := p.Study.Target()
	if err != nil {
		return nil, err
	}
	prog, err := cc.Compile(target.Sources, target.Options)
	if err != nil {
		return nil, err
	}
	base, _, _, err := ProfilePaperStyle(ctx, prog, target.Input, target.Machine, p.Intervals)
	if err != nil {
		return nil, err
	}
	return AdviseFrom(ctx, p, target, base)
}

// AdviseFrom finishes the loop from base, a baseline profile of the
// program target builds for p's study: a check of every baseline
// experiment's output (a failed run still profiles, and a re-run that
// fails the same way would pass the output-identity gate), advisor
// analysis, and one validation re-run per distinct override set plus a
// combined run. The workloads' output vectors are layout invariant, so
// the validation's output-identity gate applies unchanged.
func AdviseFrom(ctx context.Context, p AdviseParams, target advisor.Target, base *analyzer.Analyzer) (*AdviseRun, error) {
	for _, e := range base.Exps {
		if err := p.Study.Workload.Check(e.Meta.Output); err != nil {
			return nil, fmt.Errorf("baseline: %w", err)
		}
	}
	adv, err := advisor.Analyze(base, p.Advisor)
	if err != nil {
		return nil, err
	}
	valid, err := advisor.Validate(ctx, target, adv, base)
	if err != nil {
		return nil, err
	}
	return &AdviseRun{Baseline: base, Advice: adv, Valid: valid}, nil
}

// WriteReport renders the loop's report: the advice the loop validated,
// then the validation verdicts and the before/after function
// comparison, whose rows topN bounds. At the advisor's default window
// and min share, with Advisor.MaxRecs equal to a positive topN, the
// advice block holds the bytes of the registry's "advice" report over
// the baseline (erprint's and profd's rendering).
func (r *AdviseRun) WriteReport(w io.Writer, topN int) error {
	advisor.WriteAdvice(w, r.Advice)
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
