package bench

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"dsprof/internal/analyzer"
	"dsprof/internal/asm"
	"dsprof/internal/cc"
	"dsprof/internal/collect"
	"dsprof/internal/core"
	"dsprof/internal/experiment"
	"dsprof/internal/hwc"
	"dsprof/internal/machine"
	"dsprof/internal/mcf"
)

// The paper's MCF collection (§3.1): experiment A with clock profiling,
// E$ stall cycles and E$ read misses; experiment B with E$ references
// and DTLB misses; all at the paper's sparse intervals.
const (
	mcfClockTick = 900007
	mcfSpecA     = "+ecstall,100003,+ecrm,2003"
	mcfSpecB     = "+ecref,10007,+dtlbm,997"
)

// mcfReportArgs are the paper's arguments for the reports that need
// one; mcf-profile renders every report in the analyzer's registry.
var mcfReportArgs = map[string]string{
	"source":       "refresh_potential",
	"disasm":       "refresh_potential",
	"callers":      "refresh_potential",
	"members":      "node",
	"obj-timeline": "read_min",
}

// reportTokens lists every registered report, with args applied.
func reportTokens(args map[string]string) []string {
	var out []string
	for _, name := range analyzer.ReportNames() {
		if arg, ok := args[name]; ok {
			name += "=" + arg
		}
		out = append(out, name)
	}
	return out
}

// mcfMachine is the machine both MCF workloads simulate: the study
// machine with its E$ scaled down with the instance. The study machine
// pairs a 512 KB E$ with trips=1200 instances; the benchmark's
// trips=150 instances get an eighth of it, which keeps them in the
// paper's E$-miss regime (with the full 512 KB, a trips=150 instance
// never misses the E$ at all).
func mcfMachine() machine.Config {
	cfg := core.StudyMachine()
	cfg.ECache.SizeBytes = 64 << 10
	return cfg
}

// mcfInstance is one generated MCF input and its independently solved
// optimal cost.
type mcfInstance struct {
	input []int64
	cost  int64
}

// genMCF generates n instances from the run seed and solves each with
// the Go network simplex, the oracle every simulated run is held to.
func genMCF(seed uint64, trips, n int) ([]mcfInstance, error) {
	out := make([]mcfInstance, n)
	for k := range out {
		ins := mcf.Generate(mcf.DefaultGenParams(trips, deriveSeed(seed, k)))
		cost, _, err := mcf.SolveNetSimplex(ins)
		if err != nil {
			return nil, fmt.Errorf("solving instance %d: %w", k, err)
		}
		out[k] = mcfInstance{input: ins.Encode(), cost: cost}
	}
	return out, nil
}

// checkMCF is the MCF oracle: the simulated program must report an
// optimal solution of the expected cost.
func checkMCF(longs []int64, want int64) error {
	out, err := mcf.ParseOutput(longs)
	if err != nil {
		return err
	}
	if out.Status != 0 {
		return fmt.Errorf("mcf: status %d, want 0", out.Status)
	}
	if out.Cost != want {
		return fmt.Errorf("mcf: cost %d, want %d (network simplex oracle)", out.Cost, want)
	}
	return nil
}

// addStats accumulates a machine run's statistics into the iteration's
// deterministic counts under the machine.* names.
func addStats(c map[string]float64, st machine.Stats) {
	c["machine.sim_cycles"] += float64(st.Cycles)
	c["machine.sim_instrs"] += float64(st.Instrs)
	c["machine.ec_rd_misses"] += float64(st.ECRdMisses)
	c["machine.dtlb_misses"] += float64(st.DTLBMisses)
	c["machine.ec_stall_cycles"] += float64(st.ECStallCycles)
}

// finishStats derives the machine ratios from the accumulated counts.
func finishStats(c map[string]float64) {
	if cyc := c["machine.sim_cycles"]; cyc > 0 {
		c["machine.sim_ipc"] = c["machine.sim_instrs"] / cyc
		c["machine.ec_stall_share"] = c["machine.ec_stall_cycles"] / cyc
	}
}

// addCollect accounts one collect run: its instructions, events, clock
// ticks, and how well the sampled events cover the machine's exact
// counts (events × interval ÷ exact count, per armed counter).
func addCollect(c map[string]float64, exp *experiment.Experiment) {
	st := exp.Meta.Stats
	c["collect.runs"]++
	c["collect.instrs"] += float64(st.Instrs)
	c["collect.clock_ticks"] += float64(len(exp.Clock))
	for pic, cs := range exp.Meta.Counters {
		if cs.Event == hwc.EvNone {
			continue
		}
		n := exp.EventCount(pic)
		c["collect.hwc_events"] += float64(n)
		var exact uint64
		switch cs.Event {
		case hwc.EvECStall:
			exact = st.ECStallCycles
		case hwc.EvECRdMiss:
			exact = st.ECRdMisses
		case hwc.EvECRef:
			exact = st.ECRefs
		case hwc.EvDTLBMiss:
			exact = st.DTLBMisses
		default:
			continue
		}
		if exact >= cs.Interval {
			c["collect.coverage_sum"] += float64(uint64(n)*cs.Interval) / float64(exact)
			c["collect.coverage_n"]++
		}
	}
	if n := c["collect.coverage_n"]; n > 0 {
		c["collect.sample_coverage"] = c["collect.coverage_sum"] / n
	}
}

// addEffect records the backtracking effectiveness (paper Fig. 6) of
// the memory counters an analysis collected, averaged over analyses.
func addEffect(c map[string]float64, a *analyzer.Analyzer) {
	c["analyzer.analyses"]++
	n := c["analyzer.analyses"]
	for ev, name := range map[hwc.Event]string{
		hwc.EvECStall:  "analyzer.effect_ecstall",
		hwc.EvECRef:    "analyzer.effect_ecref",
		hwc.EvDTLBMiss: "analyzer.effect_dtlbm",
	} {
		c[name] += (a.Effectiveness(ev) - c[name]) / n
	}
}

// dirBytes sums the sizes of the files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// mcfProfile is the mcf-profile workload. One iteration compiles MCF
// with -xhwcprof, collects A and B on one instance spooled into
// experiment directories, saves, reopens, reduces both together, and
// renders every registered report.
type mcfProfile struct {
	machine   machine.Config
	specA     []experiment.CounterSpec
	specB     []experiment.CounterSpec
	instances []mcfInstance
}

func (w *mcfProfile) setup(r *run) (func(), error) {
	var err error
	w.machine = mcfMachine()
	if w.specA, err = collect.ParseCounterSpec(mcfSpecA); err != nil {
		return nil, err
	}
	if w.specB, err = collect.ParseCounterSpec(mcfSpecB); err != nil {
		return nil, err
	}
	w.instances, err = genMCF(r.opts.Seed, r.preset.ProfileTrips, r.preset.ProfileInstances)
	return nil, err
}

func (w *mcfProfile) units() int { return len(w.instances) }

func (w *mcfProfile) iterate(r *run, it, unit, root int) (iterRec, error) {
	c := make(map[string]float64)
	rec := iterRec{counts: c}
	dir, err := r.iterDir(it)
	if err != nil {
		return rec, err
	}
	var prog *asm.Program
	if err := r.call(root, it, "cc.compile", func() (err error) {
		prog, err = mcf.Program(mcf.LayoutPaper, cc.Options{HWCProf: true})
		return err
	}); err != nil {
		return rec, nil
	}
	c["cc.compiles"]++
	ins := w.instances[unit]
	var exps []*experiment.Experiment
	for _, e := range []struct {
		name  string
		clock bool
		specs []experiment.CounterSpec
		prov  bool
	}{{"A", true, w.specA, true}, {"B", false, w.specB, false}} {
		expDir := filepath.Join(dir, e.name+".er")
		if err := os.MkdirAll(expDir, 0o755); err != nil {
			return rec, err
		}
		var res *collect.Result
		if r.call(root, it, "collect.run", func() (err error) {
			res, err = collect.RunContext(r.ctx, prog, collect.Options{
				ClockProfile:        e.clock,
				ClockIntervalCycles: mcfClockTick,
				Counters:            e.specs,
				Machine:             &w.machine,
				Input:               ins.input,
				SpoolDir:            expDir,
				Provenance:          e.prov,
			})
			return err
		}) != nil {
			continue
		}
		st := res.Exp.Meta.Stats
		rec.instrs += st.Instrs
		c["collect.bench_instrs"] += float64(st.Instrs)
		addStats(c, st)
		addCollect(c, res.Exp)
		r.check(checkMCF(res.Machine.OutputLongs(), ins.cost))
		if r.call(root, it, "experiment.save", func() error { return res.Exp.Save(expDir) }) != nil {
			continue
		}
		n, err := dirBytes(expDir)
		r.check(err)
		c["experiment.bytes"] += float64(n)
		var exp *experiment.Experiment
		if r.call(root, it, "experiment.open", func() (err error) {
			exp, err = experiment.Open(expDir)
			return err
		}) != nil {
			continue
		}
		for pic := range experiment.NumPICs {
			c["experiment.shards"] += float64(len(exp.Shards(pic)))
			c["analyzer.events"] += float64(exp.EventCount(pic))
		}
		exps = append(exps, exp)
	}
	var rendered bytes.Buffer
	var a *analyzer.Analyzer
	if len(exps) == 2 && r.call(root, it, "analyzer.reduce", func() (err error) {
		a, err = analyzer.NewWithConfig(analyzer.Config{}, exps...)
		return err
	}) == nil {
		addEffect(c, a)
		renderAll(r, it, root, a, reportTokens(mcfReportArgs), &rendered, c)
	}
	finishStats(c)
	rec.digest = digest(rendered.Bytes(), c)
	return rec, nil
}

// renderAll renders each report token through the analyzer's shared
// dispatcher, one traced operation per report.
func renderAll(r *run, it, root int, a *analyzer.Analyzer, tokens []string, out *bytes.Buffer, c map[string]float64) {
	for _, tok := range tokens {
		var buf bytes.Buffer
		if r.call(root, it, "analyzer.render", func() error {
			return a.Render(&buf, tok, analyzer.RenderOpts{})
		}) != nil {
			continue
		}
		c["analyzer.render_bytes"] += float64(buf.Len())
		fmt.Fprintf(out, "== %s\n", tok)
		out.Write(buf.Bytes())
	}
}

func (w *mcfProfile) finish(*run, *Report) {}

// mcfVariant is one of the five unprofiled MCF builds of dsprof
// speedups: the §2.1 -xhwcprof overhead and the §3.3 optimizations.
type mcfVariant struct {
	name     string
	layout   mcf.Layout
	hwcprof  bool
	pageHeap uint64
}

var mcfVariants = []mcfVariant{
	{"baseline", mcf.LayoutPaper, true, 0},
	{"no-hwcprof", mcf.LayoutPaper, false, 0},
	{"optimized-layout", mcf.LayoutOptimized, true, 0},
	{"heap-512k", mcf.LayoutPaper, true, 512 << 10},
	{"combined", mcf.LayoutOptimized, true, 512 << 10},
}

// mcfUnarmed is the mcf-unarmed workload. One iteration compiles one
// variant and runs it on one instance with core.RunOnce — the machine
// with no counter armed.
type mcfUnarmed struct {
	machine   machine.Config
	instances []mcfInstance
}

func (w *mcfUnarmed) setup(r *run) (func(), error) {
	var err error
	w.machine = mcfMachine()
	w.instances, err = genMCF(r.opts.Seed, r.preset.UnarmedTrips, r.preset.UnarmedInstances)
	return nil, err
}

// units are every (instance, variant) pair: unit u runs variant
// u mod 5 on instance u div 5.
func (w *mcfUnarmed) units() int { return len(w.instances) * len(mcfVariants) }

func (w *mcfUnarmed) iterate(r *run, it, unit, root int) (iterRec, error) {
	c := make(map[string]float64)
	rec := iterRec{counts: c}
	v, ins := mcfVariants[unit%len(mcfVariants)], w.instances[unit/len(mcfVariants)]
	var prog *asm.Program
	if r.call(root, it, "cc.compile", func() (err error) {
		prog, err = mcf.Program(v.layout, cc.Options{HWCProf: v.hwcprof, PageSizeHeap: v.pageHeap})
		return err
	}) != nil {
		return rec, nil
	}
	c["cc.compiles"]++
	var m *machine.Machine
	if r.call(root, it, "machine.run", func() (err error) {
		m, err = core.RunOnce(prog, ins.input, &w.machine)
		return err
	}) != nil {
		return rec, nil
	}
	st := m.Stats()
	rec.instrs = st.Instrs
	c["machine.instrs"] = float64(st.Instrs)
	addStats(c, st)
	finishStats(c)
	r.check(checkMCF(m.OutputLongs(), ins.cost))
	rec.digest = digest(nil, c)
	return rec, nil
}

func (w *mcfUnarmed) finish(r *run, rep *Report) {
	// Runtime reduction against the baseline, summed over the instances,
	// as the paper reports it.
	cycles := make(map[string]float64)
	for u, c := range r.unitCounts {
		cycles[mcfVariants[u%len(mcfVariants)].name] += c["machine.sim_cycles"]
	}
	pct := func(from, to float64) float64 {
		if from == 0 || to == 0 {
			return 0
		}
		return 100 * (from - to) / from
	}
	base := cycles["baseline"]
	for name, v := range map[string]float64{
		"machine.layout_speedup_pct":   pct(base, cycles["optimized-layout"]),
		"machine.pagesize_speedup_pct": pct(base, cycles["heap-512k"]),
		"machine.combined_speedup_pct": pct(base, cycles["combined"]),
		"machine.hwcprof_overhead_pct": -pct(cycles["no-hwcprof"], base),
	} {
		rep.PerLayer[name] = Value{v, rep.PerLayer[name].Unit}
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"model vs paper (runtime reduction): layout %.1f%% (16.2%%), 512k heap pages %.1f%% (3.9%%), combined %.1f%% (20.7%%), -xhwcprof overhead %.1f%% (1.3%%); the model is not validated against hardware",
		rep.PerLayer["machine.layout_speedup_pct"].Value, rep.PerLayer["machine.pagesize_speedup_pct"].Value,
		rep.PerLayer["machine.combined_speedup_pct"].Value, rep.PerLayer["machine.hwcprof_overhead_pct"].Value))
}
