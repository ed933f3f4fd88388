package bench

import (
	"bytes"
	"fmt"
	"slices"

	"dsprof/internal/advisor"
	"dsprof/internal/analyzer"
	"dsprof/internal/asm"
	"dsprof/internal/cc"
	"dsprof/internal/collect"
	"dsprof/internal/core"
	"dsprof/internal/experiment"
	"dsprof/internal/nbody"
)

// nbodyIntervals are nbody-advise's baseline intervals: dense enough
// that a small graph yields tens of thousands of events, so event
// delivery, backtracking and reduction carry a large share of the loop.
var nbodyIntervals = core.PaperIntervals{ECStall: 211, ECRdMiss: 31, ECRef: 101, DTLBMiss: 13, ClockTick: 9001}

// adviceTopN is the row limit of the rendered advice and validation
// reports, as dsadvise loop prints them.
const adviceTopN = 10

// nbodyStudy is the n-body study a run advises on.
func nbodyStudy(papers int, seed uint64) core.NBodyStudyParams {
	return core.NBodyStudyParams{Papers: papers, Seed: deriveSeed(seed, 0), Variant: nbody.VariantBaseline, HWCProf: true}
}

// checkNBody is the n-body oracle: the simulated kernel's output vector
// must equal the Go reference model's.
func checkNBody(longs []int64, want *nbody.Output) error {
	if !slices.Equal(longs, want.Longs()) {
		return fmt.Errorf("nbody: output %v, want %v (reference model)", longs, want.Longs())
	}
	return nil
}

// nbodyAdvise is the nbody-advise workload: the dsadvise closed loop,
// composed call by call as core.AdviseNBody composes it — compile,
// collect A and B, reduce, advisor.Analyze, advisor.Validate (one
// re-run per recommendation plus a combined one), and render the advice
// and validation reports.
type nbodyAdvise struct {
	target advisor.Target
	want   *nbody.Output
	specA  []experiment.CounterSpec
	specB  []experiment.CounterSpec
	report []byte // the last rendered loop report
}

func (w *nbodyAdvise) setup(r *run) (func(), error) {
	var err error
	w.target = core.NBodyTarget(nbodyStudy(r.preset.AdvisePapers, r.opts.Seed))
	ins, err := nbody.Decode(w.target.Input)
	if err != nil {
		return nil, err
	}
	w.want = nbody.Simulate(ins)
	iv := nbodyIntervals
	if w.specA, err = collect.ParseCounterSpec(fmt.Sprintf("+ecstall,%d,+ecrm,%d", iv.ECStall, iv.ECRdMiss)); err != nil {
		return nil, err
	}
	w.specB, err = collect.ParseCounterSpec(fmt.Sprintf("+ecref,%d,+dtlbm,%d", iv.ECRef, iv.DTLBMiss))
	return nil, err
}

func (w *nbodyAdvise) units() int { return 1 }

func (w *nbodyAdvise) iterate(r *run, it, _, root int) (iterRec, error) {
	c := make(map[string]float64)
	rec := iterRec{counts: c}
	var prog *asm.Program
	if r.call(root, it, "cc.compile", func() (err error) {
		prog, err = cc.Compile(w.target.Sources, w.target.Options)
		return err
	}) != nil {
		return rec, nil
	}
	c["cc.compiles"]++
	var exps []*experiment.Experiment
	for _, e := range []struct {
		clock uint64
		specs []experiment.CounterSpec
	}{{nbodyIntervals.ClockTick, w.specA}, {0, w.specB}} {
		var res *collect.Result
		if r.call(root, it, "collect.run", func() (err error) {
			res, err = collect.RunContext(r.ctx, prog, collect.Options{
				ClockProfile:        e.clock != 0,
				ClockIntervalCycles: e.clock,
				Counters:            e.specs,
				Machine:             w.target.Machine,
				Input:               w.target.Input,
			})
			return err
		}) != nil {
			return rec, nil
		}
		st := res.Exp.Meta.Stats
		rec.instrs += st.Instrs
		c["collect.bench_instrs"] += float64(st.Instrs)
		addStats(c, st)
		addCollect(c, res.Exp)
		for pic := range experiment.NumPICs {
			c["analyzer.events"] += float64(res.Exp.EventCount(pic))
		}
		r.check(checkNBody(res.Machine.OutputLongs(), w.want))
		exps = append(exps, res.Exp)
	}
	var a *analyzer.Analyzer
	if r.call(root, it, "analyzer.reduce", func() (err error) {
		a, err = analyzer.NewWithConfig(analyzer.Config{}, exps...)
		return err
	}) != nil {
		return rec, nil
	}
	addEffect(c, a)
	var adv *advisor.Advice
	if r.call(root, it, "advisor.analyze", func() (err error) {
		adv, err = advisor.Analyze(a, advisor.Options{})
		return err
	}) != nil {
		return rec, nil
	}
	var valid *advisor.Validation
	if r.call(root, it, "advisor.validate", func() (err error) {
		valid, err = advisor.Validate(r.ctx, w.target, adv, a)
		return err
	}) != nil {
		return rec, nil
	}
	c["advisor.recs"] = float64(len(adv.Recs))
	reruns := valid.Results
	if valid.Combined != nil {
		reruns = append(slices.Clip(reruns), *valid.Combined)
		c["advisor.combined_delta_pct"] = valid.Combined.DeltaPct
	}
	for i, rr := range reruns {
		c["advisor.reruns"]++
		if rr.Exp == nil {
			r.fail(fmt.Errorf("validation re-run %d: %s", i, rr.Err))
			continue
		}
		rec.instrs += rr.Exp.Meta.Stats.Instrs
		addStats(c, rr.Exp.Meta.Stats)
		addCollect(c, rr.Exp)
		if rr.Verdict != advisor.VerdictAccepted {
			continue
		}
		if i < len(valid.Results) {
			c["advisor.accepted"]++
		}
		r.check(checkNBody(rr.Exp.Meta.Output, w.want))
	}
	var rendered bytes.Buffer
	r.call(root, it, "analyzer.render", func() error {
		return renderAdvice(&rendered, a, valid)
	})
	c["analyzer.render_bytes"] = float64(rendered.Len())
	w.report = rendered.Bytes()
	finishStats(c)
	rec.digest = digest(rendered.Bytes(), c)
	return rec, nil
}

// renderAdvice renders the loop's report exactly as
// core.AdviseRun.WriteReport does: the registered "advice" report, a
// blank line, then the validation verdicts.
func renderAdvice(buf *bytes.Buffer, a *analyzer.Analyzer, valid *advisor.Validation) error {
	if err := a.Render(buf, "advice", analyzer.RenderOpts{TopN: adviceTopN}); err != nil {
		return err
	}
	buf.WriteString("\n")
	return valid.Render(buf, a, adviceTopN)
}

func (w *nbodyAdvise) finish(*run, *Report) {}
