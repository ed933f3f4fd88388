package advisor

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"dsprof/internal/analyzer"
	"dsprof/internal/cc"
	"dsprof/internal/collect"
	"dsprof/internal/experiment"
	"dsprof/internal/hwc"
	"dsprof/internal/machine"
)

// Target is everything needed to rebuild and re-run the profiled
// program with a layout override applied: the closed-loop half of the
// advisor. The collect configuration (clock, counters, intervals) is
// not part of the target — it is derived from the baseline experiment,
// which guarantees CompareReport's same-interval requirement.
type Target struct {
	Sources []cc.Source
	Options cc.Options // base compile options; LayoutOverrides is filled per run
	Input   []int64
	Machine *machine.Config
}

// Verdicts for a validated recommendation.
const (
	VerdictAccepted = "accepted"
	VerdictRejected = "rejected"
)

// RecResult is the measured outcome of re-running the program with one
// recommendation applied.
type RecResult struct {
	Rec      Recommendation `json:"recommendation"`
	Verdict  string         `json:"verdict"`
	OutputOK bool           `json:"outputOk"` // transformed program computed the same result
	Before   uint64         `json:"before"`   // baseline metric overflows
	After    uint64         `json:"after"`    // metric overflows with the override
	DeltaPct float64        `json:"deltaPct"` // 100*(after-before)/before
	Err      string         `json:"err,omitempty"`

	Exp *experiment.Experiment `json:"-"`
	// Analysis is the re-run's reduction, set on the combined result
	// only: CompareReport renders it against the baseline. The
	// per-recommendation results are graded from event counts alone.
	Analysis *analyzer.Analyzer `json:"-"`
}

// Validation is the outcome of validating an advice set.
type Validation struct {
	Metric   hwc.Event   `json:"-"`
	Results  []RecResult `json:"results"`
	Combined *RecResult  `json:"combined,omitempty"` // every accepted override applied at once
}

// Validate re-runs the target once per distinct override among the
// recommendations, and once more with every accepted override
// combined. A recommendation is accepted when the transformed program
// produces identical output and does not regress the advice metric.
//
// cc.Compile is deterministic, so recommendations with equal overrides
// (a hot/cold split is validated through its reordering effect, with
// the same Order as the reorder beside it) build the same program: they
// share one re-run and its records, and each result keeps its own Rec
// and experiment label. The re-runs are independent, so they run on up
// to GOMAXPROCS goroutines; Results are in recommendation order
// whatever the schedule. The combined run is speculated: the
// combination of every recommendation is queued after the re-runs,
// skipped if a rejection is known when a worker reaches it, and kept
// only if every verdict comes back accepted, since the combined set
// then equals it. Otherwise the accepted overrides run once more after
// the others. Each run is a deterministic function of its overrides, so
// the result never depends on timing. A re-run that ctx cut short
// proves nothing about its layout, so if ctx has ended when the runs
// finish, Validate returns the context's error and no verdicts.
func Validate(ctx context.Context, target Target, adv *Advice, base *analyzer.Analyzer) (*Validation, error) {
	metric, err := hwc.ParseEvent(adv.Metric)
	if err != nil {
		return nil, err
	}
	baseExp := expWithMetric(base, metric)
	if baseExp == nil {
		return nil, fmt.Errorf("advisor: baseline did not collect %v", metric)
	}
	before := metricEvents(baseExp, metric)
	run := func(ctx context.Context, ovs map[string]*cc.LayoutOverride, label string, analyze bool) RecResult {
		return runOverride(ctx, target, baseExp, metric, before, ovs, label, analyze)
	}
	v := validate(ctx, adv.Recs, runtime.GOMAXPROCS(0), run)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("advisor: validation cut short: %w", err)
	}
	v.Metric = metric
	return v, nil
}

// runFunc measures one override set; analyze asks for the re-run's full
// reduction as well as its grade.
type runFunc func(ctx context.Context, ovs map[string]*cc.LayoutOverride, label string, analyze bool) RecResult

// validate schedules Validate's runs on min(workers, runs+1) goroutines.
// Jobs are handed out in order: one re-run per distinct override, then
// the speculative combined run, which a worker skips once any rejection
// is known.
func validate(ctx context.Context, recs []Recommendation, workers int, run runFunc) *Validation {
	v := &Validation{}
	var todo []Recommendation
	for _, rec := range recs {
		if rec.Override() != nil {
			todo = append(todo, rec)
		}
	}
	if len(todo) == 0 {
		return v
	}
	var (
		firsts []int                    // the first recommendation of each distinct override
		slot   = make([]int, len(todo)) // recommendation -> its index in firsts
		byKey  = make(map[string]int)
	)
	for i := range todo {
		k := overrideKey(&todo[i])
		s, ok := byKey[k]
		if !ok {
			s = len(firsts)
			byKey[k] = s
			firsts = append(firsts, i)
		}
		slot[i] = s
	}
	shared := make([]RecResult, len(firsts))
	var (
		next     atomic.Int64
		rejected atomic.Bool
		guess    *RecResult
		wg       sync.WaitGroup
	)
	work := func() {
		defer wg.Done()
		for {
			i := int(next.Add(1)) - 1
			switch {
			case i < len(firsts):
				rec := todo[firsts[i]]
				r := run(ctx, map[string]*cc.LayoutOverride{rec.Struct: rec.Override()}, rec.Kind+":"+rec.Struct, false)
				shared[i] = r
				if r.Verdict != VerdictAccepted {
					rejected.Store(true)
				}
			case i == len(firsts) && !rejected.Load():
				r := run(ctx, combine(todo), "combined", true)
				guess = &r
			default:
				return
			}
		}
	}
	n := min(workers, len(firsts)+1)
	wg.Add(n)
	for range n {
		go work()
	}
	wg.Wait()

	v.Results = make([]RecResult, len(todo))
	var accepted []Recommendation
	for i, rec := range todo {
		r := shared[slot[i]]
		if firsts[slot[i]] != i {
			r.Exp = relabel(r.Exp, rec.Kind+":"+rec.Struct)
		}
		r.Rec = rec
		v.Results[i] = r
		if r.Verdict == VerdictAccepted {
			accepted = append(accepted, rec)
		}
	}
	switch {
	case len(accepted) == len(todo) && guess != nil:
		v.Combined = guess
	case len(accepted) > 0:
		r := run(ctx, combine(accepted), "combined", true)
		v.Combined = &r
	}
	return v
}

// overrideKey is a canonical string of a recommendation's override
// set: its struct, Order and PadTo. Recommendations with equal keys
// compile to the same program.
func overrideKey(rec *Recommendation) string {
	ov := rec.Override()
	return fmt.Sprintf("%q:%#v/%d", rec.Struct, ov.Order, ov.PadTo)
}

// relabel returns a shallow copy of a re-run's experiment under its own
// label. The copy shares the records, program and output, which nothing
// writes after collect. A re-run keeps its records in memory (it is
// collected without a spool directory), so saving either copy writes
// them afresh and changes only that copy's Meta.
func relabel(e *experiment.Experiment, label string) *experiment.Experiment {
	if e == nil {
		return nil
	}
	c := *e
	c.Meta.Label = label
	return &c
}

// combine merges the overrides of ranked recommendations into one set.
func combine(recs []Recommendation) map[string]*cc.LayoutOverride {
	combined := make(map[string]*cc.LayoutOverride)
	for i := range recs {
		rec := &recs[i]
		ov := rec.Override()
		if prev := combined[rec.Struct]; prev != nil {
			// Results are ranked, so the first (higher-scored) override
			// keeps its field; a pad composes with a reorder.
			if prev.Order == nil {
				prev.Order = ov.Order
			}
			if prev.PadTo == 0 {
				prev.PadTo = ov.PadTo
			}
			continue
		}
		combined[rec.Struct] = ov
	}
	return combined
}

// expWithMetric finds the baseline experiment whose counter
// configuration collected ev.
func expWithMetric(a *analyzer.Analyzer, ev hwc.Event) *experiment.Experiment {
	for _, e := range a.Exps {
		for _, cs := range e.Meta.Counters {
			if cs.Event == ev {
				return e
			}
		}
	}
	return nil
}

// metricEvents is an experiment's event count for ev, summed over the
// PICs armed with it: the number analyzer.New(e).Total().Events[ev]
// reports, without the reduction.
func metricEvents(e *experiment.Experiment, ev hwc.Event) uint64 {
	var n uint64
	for pic, cs := range e.Meta.Counters {
		if cs.Event == ev {
			n += uint64(e.EventCount(pic))
		}
	}
	return n
}

// runOverride compiles the target with the overrides, re-profiles it
// under the baseline experiment's collect configuration, and grades the
// result from its event count for the metric. With analyze it also
// reduces the re-run into the result's Analysis.
func runOverride(ctx context.Context, target Target, baseExp *experiment.Experiment,
	metric hwc.Event, before uint64, ovs map[string]*cc.LayoutOverride, label string, analyze bool) RecResult {
	r := RecResult{Verdict: VerdictRejected, Before: before}
	opts := target.Options
	opts.LayoutOverrides = ovs
	prog, err := cc.Compile(target.Sources, opts)
	if err != nil {
		r.Err = err.Error()
		return r
	}
	bm := &baseExp.Meta
	res, err := collect.RunContext(ctx, prog, collect.Options{
		ClockProfile:        bm.ClockProfiling,
		ClockIntervalCycles: bm.ClockTickCycles,
		Counters:            bm.Counters,
		Machine:             target.Machine,
		Input:               target.Input,
		Label:               label,
	})
	if err != nil {
		r.Err = err.Error()
		return r
	}
	if analyze {
		if r.Analysis, err = analyzer.New(res.Exp); err != nil {
			r.Err = err.Error()
			return r
		}
	}
	r.Exp = res.Exp
	r.After = metricEvents(res.Exp, metric)
	if before > 0 {
		r.DeltaPct = 100 * (float64(r.After) - float64(before)) / float64(before)
	}
	r.OutputOK = equalLongs(baseExp.Meta.Output, res.Exp.Meta.Output)
	if r.OutputOK && r.After <= before {
		r.Verdict = VerdictAccepted
	}
	return r
}

func equalLongs(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Render writes the validation report: one verdict line per
// recommendation, then the before/after function comparison for the
// combined run.
func (v *Validation) Render(w io.Writer, base *analyzer.Analyzer, topN int) error {
	fmt.Fprintf(w, "Validation (%s):\n", evName(v.Metric))
	for i := range v.Results {
		r := &v.Results[i]
		line := fmt.Sprintf("  %-8s %-7s struct %-12s", r.Verdict, r.Rec.Kind, r.Rec.Struct)
		switch {
		case r.Err != "":
			line += " error: " + r.Err
		default:
			line += fmt.Sprintf(" %s overflows %d -> %d (%+.1f%%), output %s",
				evName(v.Metric), r.Before, r.After, r.DeltaPct, okStr(r.OutputOK))
		}
		fmt.Fprintln(w, line)
	}
	if v.Combined == nil {
		fmt.Fprintf(w, "  no recommendation accepted; nothing to combine\n")
		return nil
	}
	c := v.Combined
	fmt.Fprintf(w, "  %-8s %-7s all accepted overrides: %s overflows %d -> %d (%+.1f%%), output %s\n\n",
		c.Verdict, "combine", evName(v.Metric), c.Before, c.After, c.DeltaPct, okStr(c.OutputOK))
	if c.Analysis == nil {
		return nil
	}
	return analyzer.CompareReport(w, base, c.Analysis, analyzer.ByEvent(v.Metric), topN)
}

func evName(ev hwc.Event) string { return ev.String() }

func okStr(ok bool) string {
	if ok {
		return "identical"
	}
	return "DIFFERS"
}
