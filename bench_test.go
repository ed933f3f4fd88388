// Package dsprof_test holds the paper-reproduction benchmark harness: one
// benchmark per table/figure of the evaluation section (Figures 1-7), one
// per quantitative claim in the text (§2.1 -xhwcprof overhead, §3.3
// layout/page-size/combined speedups), plus the future-work (§4)
// experiments and the design ablations called out in DESIGN.md.
//
// Run with:
//
//	go test -bench=. -benchmem -timeout 7200s
//
// Figure benchmarks share one profiled study (two collect runs at the
// paper-scale configuration); speedup benchmarks each time a full
// unprofiled MCF run, so the complete sweep takes tens of minutes of
// simulation. Reported custom metrics carry the paper-vs-measured
// comparisons recorded in EXPERIMENTS.md.
package dsprof_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"dsprof/internal/analyzer"
	"dsprof/internal/asm"
	"dsprof/internal/cc"
	"dsprof/internal/collect"
	"dsprof/internal/core"
	"dsprof/internal/experiment"
	"dsprof/internal/hwc"
	"dsprof/internal/isa"
	"dsprof/internal/machine"
	"dsprof/internal/mcf"
	"dsprof/internal/profd"
)

// benchTrips scales the study; override with DSPROF_TRIPS for quicker
// sweeps (the shape assertions were calibrated at 1200).
func benchTrips() int {
	if s := os.Getenv("DSPROF_TRIPS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 1200
}

var (
	studyOnce sync.Once
	study     *core.Study
	studyErr  error
)

// benchStudy runs (once) the paper's two-experiment profiled study.
func benchStudy(b *testing.B) *core.Study {
	b.Helper()
	studyOnce.Do(func() {
		p := core.DefaultStudy(core.MCF)
		p.Size = benchTrips()
		study, studyErr = core.RunStudy(p)
	})
	if studyErr != nil {
		b.Fatal(studyErr)
	}
	return study
}

// timed caches unprofiled MCF timings per configuration so the speedup
// benchmarks compose without re-running baselines.
var (
	timedMu sync.Mutex
	timings = map[string]uint64{}
)

func timeMCF(b *testing.B, p core.StudyParams) uint64 {
	b.Helper()
	key := fmt.Sprintf("%d/%v/%d/%v", p.Size, p.Layout, p.PageSizeHeap, p.HWCProf)
	timedMu.Lock()
	defer timedMu.Unlock()
	if c, ok := timings[key]; ok {
		return c
	}
	cycles, _, err := core.TimeMCF(p)
	if err != nil {
		b.Fatal(err)
	}
	timings[key] = cycles
	return cycles
}

func baseParams() core.StudyParams {
	p := core.DefaultStudy(core.MCF)
	p.Size = benchTrips()
	return p
}

// --- Figures 1-7 ---

func BenchmarkFig1TotalMetrics(b *testing.B) {
	s := benchStudy(b)
	for i := 0; i < b.N; i++ {
		s.Figure1(io.Discard)
	}
	t := s.Analyzer.Total()
	refs := s.Analyzer.Count(hwc.EvECRef, t.Events[hwc.EvECRef])
	miss := s.Analyzer.Count(hwc.EvECRdMiss, t.Events[hwc.EvECRdMiss])
	stallSec := s.Analyzer.Seconds(hwc.EvECStall, t.Events[hwc.EvECStall])
	b.ReportMetric(100*float64(miss)/float64(refs), "%ECmissRate(paper:6.4)")
	b.ReportMetric(100*stallSec/s.Seconds, "%stallOfRuntime(paper:54)")
}

func BenchmarkFig2FunctionList(b *testing.B) {
	s := benchStudy(b)
	for i := 0; i < b.N; i++ {
		s.Figure2(io.Discard)
	}
	b.ReportMetric(100*s.FunctionShare("refresh_potential", hwc.EvECStall, true), "%refreshCPU(paper:51.1)")
	b.ReportMetric(100*s.FunctionShare("refresh_potential", hwc.EvECStall, false), "%refreshStall(paper:61.9)")
	b.ReportMetric(100*s.FunctionShare("refresh_potential", hwc.EvDTLBMiss, false), "%refreshDTLB(paper:88.0)")
	b.ReportMetric(100*s.FunctionShare("primal_bea_mpp", hwc.EvECStall, true), "%beaCPU(paper:23.2)")
}

func BenchmarkFig3AnnotatedSource(b *testing.B) {
	s := benchStudy(b)
	for i := 0; i < b.N; i++ {
		if err := s.Figure3(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4AnnotatedDisasm(b *testing.B) {
	s := benchStudy(b)
	for i := 0; i < b.N; i++ {
		if err := s.Figure4(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5TopPCs(b *testing.B) {
	s := benchStudy(b)
	for i := 0; i < b.N; i++ {
		s.Figure5(io.Discard, 17)
	}
	// Paper Figure 5: the top E$ read-miss PCs concentrate in
	// refresh_potential and primal_bea_mpp.
	rows := s.Analyzer.PCs(analyzer.ByEvent(hwc.EvECRdMiss), 5)
	inHot := 0
	for _, r := range rows {
		fn := s.Analyzer.Tab.FuncAt(r.PC)
		if fn != nil && (fn.Name == "refresh_potential" || fn.Name == "primal_bea_mpp") {
			inHot++
		}
	}
	b.ReportMetric(float64(inHot), "top5PCsInHotFuncs(paper:5)")
}

func BenchmarkFig6DataObjects(b *testing.B) {
	s := benchStudy(b)
	for i := 0; i < b.N; i++ {
		s.Figure6(io.Discard)
	}
	b.ReportMetric(100*s.ObjectShare("arc", hwc.EvECStall), "%arcStall(paper:55.9)")
	b.ReportMetric(100*s.ObjectShare("node", hwc.EvECStall), "%nodeStall(paper:41.9)")
	b.ReportMetric(100*s.Analyzer.Effectiveness(hwc.EvECStall), "%effECStall(paper:>99)")
	b.ReportMetric(100*s.Analyzer.Effectiveness(hwc.EvECRef), "%effECRef(paper:94)")
	b.ReportMetric(100*s.Analyzer.Effectiveness(hwc.EvDTLBMiss), "%effDTLB(paper:100)")
}

func BenchmarkFig7NodeMembers(b *testing.B) {
	s := benchStudy(b)
	for i := 0; i < b.N; i++ {
		if err := s.Figure7(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	st, err := s.Analyzer.SplitObjects("node")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(100*st.Fraction(), "%nodesSplit(paper:28)")
	// Share of node stall carried by the three members the paper calls
	// out (child, orientation, potential).
	id, _ := s.Analyzer.Tab.TypeByName("node")
	nodeTotal := s.Analyzer.ObjMetrics(id).Events[hwc.EvECStall]
	var hot uint64
	for i, r := range s.Analyzer.Members(id) {
		_ = i
		switch {
		case contains(r.Name, " child}"), contains(r.Name, " orientation}"), contains(r.Name, " potential}"):
			hot += r.M.Events[hwc.EvECStall]
		}
	}
	if nodeTotal > 0 {
		b.ReportMetric(100*float64(hot)/float64(nodeTotal), "%hot3MembersOfNode(paper:~85)")
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}

// --- §2.1: -xhwcprof runtime overhead (paper: ~1.3%) ---

func BenchmarkHwcprofOverhead(b *testing.B) {
	base := baseParams()
	noProf := base
	noProf.HWCProf = false
	var with, without uint64
	for i := 0; i < b.N; i++ {
		with = timeMCF(b, base)
		without = timeMCF(b, noProf)
	}
	b.ReportMetric(100*(float64(with)-float64(without))/float64(without), "%overhead(paper:1.3)")
}

// --- §3.3: performance improvements from the analysis ---

func BenchmarkStructLayoutSpeedup(b *testing.B) {
	base := baseParams()
	opt := base
	opt.Layout = mcf.LayoutOptimized.String()
	var baseC, optC uint64
	for i := 0; i < b.N; i++ {
		baseC = timeMCF(b, base)
		optC = timeMCF(b, opt)
	}
	b.ReportMetric(100*(float64(baseC)-float64(optC))/float64(baseC), "%speedup(paper:16.2)")
}

func BenchmarkPageSizeSpeedup(b *testing.B) {
	base := baseParams()
	pg := base
	pg.PageSizeHeap = 512 << 10
	var baseC, pgC uint64
	for i := 0; i < b.N; i++ {
		baseC = timeMCF(b, base)
		pgC = timeMCF(b, pg)
	}
	b.ReportMetric(100*(float64(baseC)-float64(pgC))/float64(baseC), "%speedup(paper:3.9)")
}

func BenchmarkCombinedSpeedup(b *testing.B) {
	base := baseParams()
	both := base
	both.Layout = mcf.LayoutOptimized.String()
	both.PageSizeHeap = 512 << 10
	var baseC, bothC uint64
	for i := 0; i < b.N; i++ {
		baseC = timeMCF(b, base)
		bothC = timeMCF(b, both)
	}
	b.ReportMetric(100*(float64(baseC)-float64(bothC))/float64(baseC), "%speedup(paper:20.7)")
}

// --- §4 future work ---

func BenchmarkAddressSpaceReports(b *testing.B) {
	s := benchStudy(b)
	for i := 0; i < b.N; i++ {
		s.Analyzer.AddressSpaceReport(io.Discard, analyzer.ByEvent(hwc.EvECRdMiss), 10)
	}
	// Heap share of EA-resolved stall events (MCF's data lives on the
	// heap, so this should be essentially everything).
	var heap, all uint64
	for _, r := range s.Analyzer.Segments() {
		all += r.M.Events[hwc.EvECStall]
		if r.Seg.String() == "Heap" {
			heap += r.M.Events[hwc.EvECStall]
		}
	}
	if all > 0 {
		b.ReportMetric(100*float64(heap)/float64(all), "%stallEventsInHeap")
	}
}

func BenchmarkPrefetchFeedback(b *testing.B) {
	s := benchStudy(b)
	fb := s.Analyzer.PrefetchFeedback(0.01)
	if len(fb) == 0 {
		b.Fatal("no prefetch feedback produced")
	}
	prog, err := mcf.Program(mcf.LayoutPaper, cc.Options{HWCProf: true, PrefetchFeedback: fb})
	if err != nil {
		b.Fatal(err)
	}
	ins := mcf.Generate(mcf.DefaultGenParams(s.Params.Size, s.Params.Seed))
	cfg := core.StudyMachine()
	var withPf uint64
	for i := 0; i < b.N; i++ {
		m, err := core.RunOnce(prog, ins.Encode(), &cfg)
		if err != nil {
			b.Fatal(err)
		}
		withPf = m.Stats().Cycles
	}
	base := timeMCF(b, baseParams())
	b.ReportMetric(100*(float64(base)-float64(withPf))/float64(base), "%speedup(upper-bound)")
}

// --- ablations (DESIGN.md) ---

// BenchmarkAblationNoBacktrack shows data-object attribution collapsing
// when counters are armed without the "+" backtracking prefix.
func BenchmarkAblationNoBacktrack(b *testing.B) {
	prog, err := mcf.Program(mcf.LayoutPaper, cc.Options{HWCProf: true})
	if err != nil {
		b.Fatal(err)
	}
	ins := mcf.Generate(mcf.DefaultGenParams(benchTrips()/2, 20030717))
	cfg := core.StudyMachine()
	var share float64
	for i := 0; i < b.N; i++ {
		res, err := core.CollectRun(context.Background(), prog, "ecstall,100003", collect.Options{Machine: &cfg, Input: ins.Encode()})
		if err != nil {
			b.Fatal(err)
		}
		a, err := core.Analyze(res.Exp)
		if err != nil {
			b.Fatal(err)
		}
		id, _ := a.Tab.TypeByName("arc")
		nid, _ := a.Tab.TypeByName("node")
		t := a.Total()
		if t.Events[hwc.EvECStall] > 0 {
			share = float64(a.ObjMetrics(id).Events[hwc.EvECStall]+a.ObjMetrics(nid).Events[hwc.EvECStall]) /
				float64(t.Events[hwc.EvECStall])
		}
	}
	s := benchStudy(b)
	withBT := s.ObjectShare("arc", hwc.EvECStall) + s.ObjectShare("node", hwc.EvECStall)
	b.ReportMetric(100*share, "%arc+nodeAttrib(noBacktrack)")
	b.ReportMetric(100*withBT, "%arc+nodeAttrib(withBacktrack)")
}

// --- profiling service (internal/profd) ---

// BenchmarkParallelCollect runs the paper's A+B experiment pair through
// the profd scheduler (experiments collected concurrently on the worker
// pool) against the same pair collected serially, checks the merged
// objects report is byte-identical either way, and reports the
// wall-clock speedup of the parallel collection.
func BenchmarkParallelCollect(b *testing.B) {
	trips := benchTrips()
	const (
		countersA = "+ecstall,100003,+ecrm,2003"
		countersB = "+ecref,10007,+dtlbm,997"
	)
	prog, err := mcf.Program(mcf.LayoutPaper, cc.Options{HWCProf: true})
	if err != nil {
		b.Fatal(err)
	}
	input := mcf.Generate(mcf.DefaultGenParams(trips, 20030717)).Encode()
	cfg := core.StudyMachine()

	renderObjects := func(a *analyzer.Analyzer) []byte {
		var buf bytes.Buffer
		if err := a.Render(&buf, "objects", analyzer.RenderOpts{}); err != nil {
			b.Fatal(err)
		}
		return buf.Bytes()
	}

	var serialDur, parallelDur time.Duration
	var serialOut, parallelOut []byte
	for i := 0; i < b.N; i++ {
		// Serial reference: the two collect runs back to back.
		t0 := time.Now()
		resA, err := core.CollectRun(context.Background(), prog, countersA, collect.Options{ClockProfile: true, Machine: &cfg, Input: input})
		if err != nil {
			b.Fatal(err)
		}
		resB, err := core.CollectRun(context.Background(), prog, countersB, collect.Options{Machine: &cfg, Input: input})
		if err != nil {
			b.Fatal(err)
		}
		serialDur = time.Since(t0)
		an, err := core.Analyze(resA.Exp, resB.Exp)
		if err != nil {
			b.Fatal(err)
		}
		serialOut = renderObjects(an)

		// Parallel: the same pair as profd jobs on a 4-worker pool.
		store, err := profd.OpenStore(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		sched := profd.NewScheduler(store, profd.SchedulerConfig{Workers: 4})
		t0 = time.Now()
		ja, err := sched.Submit(profd.JobSpec{
			Program: "mcf", Trips: trips, Clock: true, Counters: countersA,
		})
		if err != nil {
			b.Fatal(err)
		}
		jb, err := sched.Submit(profd.JobSpec{
			Program: "mcf", Trips: trips, Counters: countersB,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sched.WaitAll(context.Background()); err != nil {
			b.Fatal(err)
		}
		parallelDur = time.Since(t0)
		sa, sb := ja.Status(), jb.Status()
		if sa.State != profd.JobDone || sb.State != profd.JobDone {
			b.Fatalf("jobs finished %v (%s) / %v (%s)", sa.State, sa.Error, sb.State, sb.Error)
		}
		pa, err := store.Analyzer([]string{sa.Experiment, sb.Experiment})
		if err != nil {
			b.Fatal(err)
		}
		parallelOut = renderObjects(pa)
		sched.Close()
	}

	if !bytes.Equal(serialOut, parallelOut) {
		b.Fatalf("parallel objects report differs from serial\n--- parallel ---\n%s\n--- serial ---\n%s",
			parallelOut, serialOut)
	}
	b.ReportMetric(serialDur.Seconds()/parallelDur.Seconds(), "xSpeedupOverSerial")
	b.ReportMetric(parallelDur.Seconds(), "parallelSec")
	b.ReportMetric(serialDur.Seconds(), "serialSec")
}

// --- experiment format v2: streaming + sharded parallel reduction ---

// shardedBenchExperiment builds (once) a >=1M-event synthetic experiment
// by tiling a real profiled MCF run's counter-event stream — event
// content stays realistic (valid PCs, EAs into live allocations) while
// the volume reaches the scale the sharded reduction targets. Saved in
// v2 format so both the streaming and the eager path read it.
var (
	shardedBenchOnce sync.Once
	shardedBenchDir  string
	shardedBenchN    int
	shardedBenchErr  error
)

func shardedBenchExperiment(b *testing.B) (dir string, events int) {
	b.Helper()
	shardedBenchOnce.Do(func() {
		fail := func(err error) { shardedBenchErr = err }
		prog, err := mcf.Program(mcf.LayoutPaper, cc.Options{HWCProf: true})
		if err != nil {
			fail(err)
			return
		}
		input := mcf.Generate(mcf.DefaultGenParams(200, 20030717)).Encode()
		cfg := core.StudyMachine()
		res, err := core.CollectRun(context.Background(), prog, "+ecstall,1009,+ecrm,503", collect.Options{ClockProfile: true, Machine: &cfg, Input: input})
		if err != nil {
			fail(err)
			return
		}
		base := res.Exp
		total := 0
		for pic := range base.HWC {
			total += len(base.HWC[pic])
		}
		if total == 0 {
			fail(fmt.Errorf("seed collect recorded no counter events"))
			return
		}
		const target = 1 << 20
		reps := (target + total - 1) / total
		synth := &experiment.Experiment{
			Meta: base.Meta, Clock: base.Clock, Allocs: base.Allocs, Prog: base.Prog,
		}
		for pic := range base.HWC {
			src := base.HWC[pic]
			if len(src) == 0 {
				continue
			}
			span := src[len(src)-1].Cycles + 1
			out := make([]experiment.HWCEvent, 0, reps*len(src))
			for r := 0; r < reps; r++ {
				for _, ev := range src {
					ev.Cycles += uint64(r) * span
					out = append(out, ev)
				}
			}
			synth.HWC[pic] = out
		}
		shardedBenchN = reps * total
		root, err := os.MkdirTemp("", "dsprof-shardbench")
		if err != nil {
			fail(err)
			return
		}
		shardedBenchDir = filepath.Join(root, "synth.er")
		shardedBenchErr = synth.Save(shardedBenchDir)
	})
	if shardedBenchErr != nil {
		b.Fatal(shardedBenchErr)
	}
	return shardedBenchDir, shardedBenchN
}

// peakHeapDuring samples the live heap while f runs and returns the
// high-water mark.
func peakHeapDuring(f func()) uint64 {
	runtime.GC()
	var peak uint64
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak {
				peak = ms.HeapAlloc
			}
			select {
			case <-done:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	f()
	close(done)
	wg.Wait()
	return peak
}

// BenchmarkShardedReduce times the sharded reduction of a >=1M-event
// streaming (Open) experiment at 1 worker vs 4 workers, and compares the
// peak heap of the streaming reduction against the eager (Load) path.
func BenchmarkShardedReduce(b *testing.B) {
	dir, n := shardedBenchExperiment(b)
	build := func(workers int, eager bool) time.Duration {
		var e *experiment.Experiment
		var err error
		if eager {
			e, err = experiment.Load(dir)
		} else {
			e, err = experiment.Open(dir)
		}
		if err != nil {
			b.Fatal(err)
		}
		t0 := time.Now()
		if _, err := analyzer.NewWithConfig(analyzer.Config{Workers: workers}, e); err != nil {
			b.Fatal(err)
		}
		return time.Since(t0)
	}
	var serial, par time.Duration
	for i := 0; i < b.N; i++ {
		serial = build(1, false)
		par = build(4, false)
	}
	peakEager := peakHeapDuring(func() { build(1, true) })
	peakStream := peakHeapDuring(func() { build(4, false) })
	b.ReportMetric(float64(n), "events")
	b.ReportMetric(serial.Seconds(), "serialSec")
	b.ReportMetric(par.Seconds(), "parallelSec")
	b.ReportMetric(serial.Seconds()/par.Seconds(), "xSpeedup4Workers")
	b.ReportMetric(float64(peakEager)/(1<<20), "peakHeapMBEager")
	b.ReportMetric(float64(peakStream)/(1<<20), "peakHeapMBStreaming")
}

// BenchmarkAblationNoPadding measures the effect of dropping the
// -xhwcprof compiler support entirely: every event lands in
// (Unascertainable) and attribution is impossible.
func BenchmarkAblationNoPadding(b *testing.B) {
	prog, err := mcf.Program(mcf.LayoutPaper, cc.Options{HWCProf: false})
	if err != nil {
		b.Fatal(err)
	}
	ins := mcf.Generate(mcf.DefaultGenParams(benchTrips()/2, 20030717))
	cfg := core.StudyMachine()
	var eff float64
	for i := 0; i < b.N; i++ {
		res, err := core.CollectRun(context.Background(), prog, "+ecstall,100003", collect.Options{Machine: &cfg, Input: ins.Encode()})
		if err != nil {
			b.Fatal(err)
		}
		a, err := core.Analyze(res.Exp)
		if err != nil {
			b.Fatal(err)
		}
		eff = a.Effectiveness(hwc.EvECStall)
	}
	s := benchStudy(b)
	b.ReportMetric(100*eff, "%effectiveness(noHwcprof)")
	b.ReportMetric(100*s.Analyzer.Effectiveness(hwc.EvECStall), "%effectiveness(withHwcprof)")
}

// --- simulator fast path (DESIGN.md §7, §11) ---

// simcoreMu guards BENCH_simcore.json, which the fast-path benchmarks
// below merge their numbers into (the CI bench-smoke job uploads it).
var simcoreMu sync.Mutex

func recordSimcore(b *testing.B, section string, vals map[string]float64) {
	b.Helper()
	simcoreMu.Lock()
	defer simcoreMu.Unlock()
	const path = "BENCH_simcore.json"
	doc := map[string]map[string]float64{}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &doc); err != nil {
			doc = map[string]map[string]float64{}
		}
	}
	doc[section] = vals
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// simcoreProg compiles the MCF workload the fast-path benchmarks run.
func simcoreProg(b *testing.B) (*asm.Program, []int64, machine.Config) {
	b.Helper()
	prog, err := mcf.Program(mcf.LayoutPaper, cc.Options{HWCProf: true})
	if err != nil {
		b.Fatal(err)
	}
	input := mcf.Generate(mcf.DefaultGenParams(benchTrips()/2, 20030717)).Encode()
	return prog, input, core.StudyMachine()
}

func newSimcoreMachine(b *testing.B, prog *asm.Program, input []int64, cfg machine.Config) *machine.Machine {
	b.Helper()
	if prog.HeapPageSize != 0 {
		cfg.HeapPageSize = prog.HeapPageSize
	}
	m, err := machine.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := m.LoadProgram(prog.Text, prog.Data, prog.Entry); err != nil {
		b.Fatal(err)
	}
	m.SetInput(input)
	return m
}

// steadyAllocs reports the steady-state allocation count of a machine's
// batched loop: run a fresh machine past warm-up (which includes
// translating the hot blocks), then count allocations across large
// RunFor batches.
func steadyAllocs(b *testing.B, m *machine.Machine) float64 {
	b.Helper()
	if err := m.RunFor(1 << 22); err != nil {
		b.Fatal(err)
	}
	return testing.AllocsPerRun(8, func() {
		if !m.Halted() {
			if err := m.RunFor(1 << 18); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMachineRun measures unarmed engine throughput: a full
// unprofiled MCF run on the default engine (Run) versus the
// instruction-granular reference stepper, plus the steady-state
// allocation count of the engine loop. The produced executions are
// identical (TestFastPathEquivalence holds both to the same state); only
// the wall-clock differs. Best-of timings with their recorded spreads
// keep speedup_vs_step, the number the CI bench-smoke gate watches,
// stable.
func BenchmarkMachineRun(b *testing.B) {
	prog, input, cfg := simcoreProg(b)

	var instrs, stepInstrs uint64
	timeRun := func(step bool) float64 {
		m := newSimcoreMachine(b, prog, input, cfg)
		t0 := time.Now()
		if step {
			for !m.Halted() {
				if err := m.Step(); err != nil {
					b.Fatal(err)
				}
			}
			stepInstrs = m.Stats().Instrs
		} else {
			if err := m.Run(); err != nil {
				b.Fatal(err)
			}
			instrs = m.Stats().Instrs
		}
		return time.Since(t0).Seconds()
	}
	var runSec, stepSec, runSpread, stepSpread float64
	for i := 0; i < b.N; i++ {
		runSec, runSpread = bestOf(5, func() float64 { return timeRun(false) })
		stepSec, stepSpread = bestOf(2, func() float64 { return timeRun(true) })
	}
	if stepInstrs != instrs {
		b.Fatalf("step loop retired %d instrs, Run %d", stepInstrs, instrs)
	}

	allocs := steadyAllocs(b, newSimcoreMachine(b, prog, input, cfg))

	instrsPerSec := float64(instrs) / runSec
	nsPerInstr := runSec * 1e9 / float64(instrs)
	speedup := stepSec / runSec
	b.ReportMetric(instrsPerSec/1e6, "Minstrs/sec")
	b.ReportMetric(nsPerInstr, "ns/instr")
	b.ReportMetric(speedup, "xSpeedupVsStep")
	b.ReportMetric(allocs, "steadyAllocs/op")
	recordSimcore(b, "machine_run_unarmed", map[string]float64{
		"instrs":               float64(instrs),
		"instrs_per_sec":       instrsPerSec,
		"ns_per_instr":         nsPerInstr,
		"step_ns_per_instr":    stepSec * 1e9 / float64(instrs),
		"speedup_vs_step":      speedup,
		"spread_pct":           runSpread,
		"spread_pct_step":      stepSpread,
		"steady_allocs_per_op": allocs,
	})
}

// BenchmarkMachineRunALU measures unarmed throughput on an ALU-weighted
// workload — the instruction blend of hot compute loops, with the memory
// hierarchy in its cheap hit paths — isolating interpreter dispatch from
// the cache-simulation floor that dominates the memory-bound MCF runs.
func BenchmarkMachineRunALU(b *testing.B) {
	const iters = 1_000_000
	bb := asm.NewBuilder(machine.TextBase)
	bb.Emit(isa.Instr{Op: isa.SetHi, Rd: isa.L0, UseImm: true, Imm: iters >> isa.SetHiShift})
	bb.Emit(isa.Instr{Op: isa.Or, Rd: isa.L0, Rs1: isa.L0, UseImm: true, Imm: iters & (1<<isa.SetHiShift - 1)})
	bb.Emit(isa.Instr{Op: isa.Or, Rd: isa.L1, Rs1: isa.G0, UseImm: true, Imm: 0})
	bb.Label("loop")
	bb.Emit(isa.Instr{Op: isa.Add, Rd: isa.L1, Rs1: isa.L1, Rs2: isa.L0})
	bb.Emit(isa.Instr{Op: isa.Xor, Rd: isa.L2, Rs1: isa.L1, UseImm: true, Imm: 0x15})
	bb.Emit(isa.Instr{Op: isa.StX, Rd: isa.L2, Rs1: isa.SP, UseImm: true, Imm: -16})
	bb.Emit(isa.Instr{Op: isa.LdX, Rd: isa.L3, Rs1: isa.SP, UseImm: true, Imm: -16})
	bb.Emit(isa.Instr{Op: isa.Sll, Rd: isa.L4, Rs1: isa.L3, UseImm: true, Imm: 3})
	bb.EmitCall("fn")
	bb.Emit(isa.Instr{Op: isa.Nop})
	bb.Emit(isa.Instr{Op: isa.Sub, Rd: isa.L0, Rs1: isa.L0, UseImm: true, Imm: 1})
	bb.Emit(isa.Instr{Op: isa.Cmp, Rs1: isa.L0, UseImm: true, Imm: 0})
	bb.EmitBranch(isa.Bg, "loop")
	bb.Emit(isa.Instr{Op: isa.Nop})
	bb.Emit(isa.Instr{Op: isa.Halt})
	bb.Label("fn")
	bb.Emit(isa.Instr{Op: isa.Add, Rd: isa.O0, Rs1: isa.L4, Rs2: isa.L1})
	bb.Emit(isa.Instr{Op: isa.Jmpl, Rd: isa.G0, Rs1: isa.O7, UseImm: true, Imm: 8})
	bb.Emit(isa.Instr{Op: isa.Nop})
	text, err := bb.Finish()
	if err != nil {
		b.Fatal(err)
	}
	newALU := func() *machine.Machine {
		m, err := machine.New(machine.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if err := m.LoadProgram(text, nil, machine.TextBase); err != nil {
			b.Fatal(err)
		}
		return m
	}
	var fastSec, stepSec float64
	var instrs uint64
	for i := 0; i < b.N; i++ {
		m := newALU()
		t0 := time.Now()
		if err := m.Run(); err != nil {
			b.Fatal(err)
		}
		fastSec = time.Since(t0).Seconds()
		instrs = m.Stats().Instrs

		m = newALU()
		t0 = time.Now()
		for !m.Halted() {
			if err := m.Step(); err != nil {
				b.Fatal(err)
			}
		}
		stepSec = time.Since(t0).Seconds()
		if m.Stats().Instrs != instrs {
			b.Fatalf("step loop retired %d instrs, fast path %d", m.Stats().Instrs, instrs)
		}
	}
	b.ReportMetric(float64(instrs)/fastSec/1e6, "Minstrs/sec")
	b.ReportMetric(fastSec*1e9/float64(instrs), "ns/instr")
	b.ReportMetric(stepSec/fastSec, "xSpeedupVsStep")
	recordSimcore(b, "machine_run_alu", map[string]float64{
		"instrs":            float64(instrs),
		"instrs_per_sec":    float64(instrs) / fastSec,
		"ns_per_instr":      fastSec * 1e9 / float64(instrs),
		"step_ns_per_instr": stepSec * 1e9 / float64(instrs),
		"speedup_vs_step":   stepSec / fastSec,
	})
}

// bestOf runs f n times and returns the fastest timing plus the spread —
// how far the slowest run sat above the fastest, in percent. The unarmed
// run, armed collect and provenance benchmarks compare two timings of
// the same work, so a single noisy run used to produce impossible figures
// (negative overhead); the best-of-n minimum is the stable estimate of
// the true cost, and the recorded spread documents how noisy the box
// was.
func bestOf(n int, f func() float64) (best, spreadPct float64) {
	samples := make([]float64, n)
	for i := range samples {
		samples[i] = f()
	}
	return fastest(samples)
}

// fastest returns the smallest of several timings of the same work and
// the spread, how far the slowest sat above it, in percent.
func fastest(samples []float64) (best, spreadPct float64) {
	best = slices.Min(samples)
	return best, (slices.Max(samples)/best - 1) * 100
}

// BenchmarkCollectArmedTranslated measures the armed MCF collect — the
// configuration every experiment in the paper actually runs: clock
// profiling plus the E$ stall/read-miss counter set with backtracking.
// speedup_vs_step compares two full collect.Run calls, the default
// engine against the reference stepper (SingleStep). Both produce the
// same experiment (TestFastPathGolden); best-of-5 timings with the
// recorded spread keep the CI gate on stable figures.
func BenchmarkCollectArmedTranslated(b *testing.B) {
	prog, input, cfg := simcoreProg(b)
	specs, err := collect.ParseCounterSpec("+ecstall,100003,+ecrm,2003")
	if err != nil {
		b.Fatal(err)
	}
	var instrs uint64
	runCollect := func(singleStep bool) float64 {
		opts := collect.Options{
			ClockProfile: true,
			Counters:     specs,
			Machine:      &cfg,
			Input:        input,
			SingleStep:   singleStep,
		}
		t0 := time.Now()
		res, err := collect.Run(prog, opts)
		if err != nil {
			b.Fatal(err)
		}
		instrs = res.Exp.Meta.Stats.Instrs
		return time.Since(t0).Seconds()
	}
	var transSec, stepSec, transSpread float64
	for i := 0; i < b.N; i++ {
		transSec, transSpread = bestOf(5, func() float64 { return runCollect(false) })
		stepSec, _ = bestOf(2, func() float64 { return runCollect(true) })
	}
	vsStep := stepSec / transSec
	b.ReportMetric(transSec, "translatedSec")
	b.ReportMetric(stepSec, "singleStepSec")
	b.ReportMetric(vsStep, "xSpeedupVsStep")
	b.ReportMetric(float64(instrs)/transSec/1e6, "Minstrs/sec")
	recordSimcore(b, "collect_armed_translated", map[string]float64{
		"instrs":          float64(instrs),
		"translated_sec":  transSec,
		"single_step_sec": stepSec,
		"speedup_vs_step": vsStep,
		"spread_pct":      transSpread,
	})
}

// BenchmarkProvenanceOverhead measures what allocation-site provenance
// recording adds to an armed MCF collect: the identical run with
// provenance off and on, as five off/on pairs that alternate which side
// runs first, keeping the best of five runs per side to suppress
// scheduler noise (the recorded spread shows the jitter the minimum
// discards). Interleaving the sides means a shift in the host's speed
// during the benchmark lands on both of them instead of reading as
// overhead, as it did when the five off runs all ran before the five on
// runs. Recording is a handful of host-side appends per malloc (MCF
// allocates a few large blocks), so the enabled overhead must stay in
// the low single digits; disabled, the provenance path is never entered
// and the event shards are byte-identical (provenance_golden_test.go).
// The CI <=5% gate reads the best-of-5 overhead_pct.
func BenchmarkProvenanceOverhead(b *testing.B) {
	prog, input, cfg := simcoreProg(b)
	specs, err := collect.ParseCounterSpec("+ecstall,100003,+ecrm,2003")
	if err != nil {
		b.Fatal(err)
	}
	var instrs uint64
	var records int
	runOnce := func(provenance bool) float64 {
		opts := collect.Options{
			ClockProfile: true,
			Counters:     specs,
			Machine:      &cfg,
			Input:        input,
			Provenance:   provenance,
		}
		t0 := time.Now()
		res, err := collect.Run(prog, opts)
		if err != nil {
			b.Fatal(err)
		}
		instrs = res.Exp.Meta.Stats.Instrs
		if provenance {
			records = res.Exp.ProvCount()
		}
		return time.Since(t0).Seconds()
	}
	var offSec, onSec, offSpread, onSpread float64
	for i := 0; i < b.N; i++ {
		off, on := make([]float64, 5), make([]float64, 5)
		for pair := range off {
			if pair%2 == 0 {
				off[pair] = runOnce(false)
				on[pair] = runOnce(true)
			} else {
				on[pair] = runOnce(true)
				off[pair] = runOnce(false)
			}
		}
		offSec, offSpread = fastest(off)
		onSec, onSpread = fastest(on)
	}
	if records == 0 {
		b.Fatal("provenance-enabled collect recorded no allocations")
	}
	overheadPct := (onSec/offSec - 1) * 100
	b.ReportMetric(offSec, "offSec")
	b.ReportMetric(onSec, "onSec")
	b.ReportMetric(overheadPct, "overhead%")
	recordSimcore(b, "collect_provenance", map[string]float64{
		"instrs":         float64(instrs),
		"off_sec":        offSec,
		"on_sec":         onSec,
		"overhead_pct":   overheadPct,
		"spread_pct_off": offSpread,
		"spread_pct_on":  onSpread,
		"records":        float64(records),
	})
}
