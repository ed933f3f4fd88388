// The paper's evaluation under test. `dsprof study` at its default 1200
// trips must render every file of docs/sample-figures/ byte for byte,
// and every MCF number EXPERIMENTS.md records for Figures 1-7, §2.1,
// §3.3, §4 and the ablations is pinned here, beside the paper's value.
// The simulation is deterministic, so the pins are exact.
package dsprof_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"dsprof/internal/analyzer"
	"dsprof/internal/cc"
	"dsprof/internal/collect"
	"dsprof/internal/core"
	"dsprof/internal/experiment"
	"dsprof/internal/hwc"
	"dsprof/internal/machine"
	"dsprof/internal/mcf"
)

const (
	sampleFigures = "docs/sample-figures"
	// regenerate rewrites sampleFigures; its default -trips is 1200.
	regenerate = "go run ./cmd/dsprof study -o " + sampleFigures
	// ablationTrips sizes the two ablation collects.
	ablationTrips = 600
)

// paperParams is the study `dsprof study` and `dsprof speedups` run by
// default.
func paperParams() core.StudyParams {
	p := core.DefaultStudy(core.MCF)
	p.Size = 1200
	return p
}

var (
	paperStudyOnce sync.Once
	paperStudyRun  *core.Study
	paperStudyErr  error
)

// loadPaperStudy runs the paper's two-experiment study once per process.
func loadPaperStudy() (*core.Study, error) {
	paperStudyOnce.Do(func() {
		paperStudyRun, paperStudyErr = core.RunStudy(paperParams())
	})
	return paperStudyRun, paperStudyErr
}

func paperStudy(t *testing.T) *core.Study {
	t.Helper()
	s, err := loadPaperStudy()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// paperRuns are the runs behind the numbers no figure prints: the five
// timed variants, the prefetch-feedback recompilation and the two
// ablations.
type paperRuns struct {
	variants []core.Variant
	stats    []machine.Stats // per variant, unprofiled
	outputs  []*mcf.Output
	// feedback is the number of source lines fed back to the compiler;
	// prefetch the cycles of the baseline recompiled with them, and
	// prefetchOut its output.
	feedback    int
	prefetch    uint64
	prefetchOut *mcf.Output
	// noBacktrack is arc+node's share of E$ stall with counters armed
	// without the "+" backtracking prefix; noHWCProf the E$ stall
	// backtracking effectiveness of a build without -xhwcprof.
	noBacktrack float64
	noHWCProf   float64
}

var (
	paperRunsOnce sync.Once
	paperRunsRes  *paperRuns
	paperRunsErr  error
)

// loadPaperRuns makes the runs once per process, up to GOMAXPROCS at a
// time; the prefetch run waits for the study's feedback.
func loadPaperRuns(t *testing.T) *paperRuns {
	t.Helper()
	paperRunsOnce.Do(func() {
		r := &paperRuns{variants: core.PaperVariants(paperParams())}
		r.stats = make([]machine.Stats, len(r.variants))
		r.outputs = make([]*mcf.Output, len(r.variants))
		jobs := []func() error{
			func() error {
				s, err := loadPaperStudy()
				if err != nil {
					return err
				}
				fb := s.Analyzer.PrefetchFeedback(0.01)
				for _, lines := range fb {
					r.feedback += len(lines)
				}
				tg, err := paperParams().Target()
				if err != nil {
					return err
				}
				tg.Options.PrefetchFeedback = fb
				prog, err := cc.Compile(tg.Sources, tg.Options)
				if err != nil {
					return err
				}
				m, err := core.RunOnce(prog, tg.Input, tg.Machine)
				if err != nil {
					return err
				}
				r.prefetch = m.Stats().Cycles
				r.prefetchOut, err = mcf.ParseOutput(m.OutputLongs())
				return err
			},
		}
		for i, v := range r.variants {
			jobs = append(jobs, func() (err error) {
				r.stats[i], r.outputs[i], err = core.TimeMCF(v.Params)
				return err
			})
		}
		jobs = append(jobs,
			func() error {
				a, err := ablation(true, "ecstall,100003")
				if err == nil {
					r.noBacktrack = structShare(a, hwc.EvECStall, "arc", "node")
				}
				return err
			},
			func() error {
				a, err := ablation(false, "+ecstall,100003")
				if err == nil {
					r.noHWCProf = a.Effectiveness(hwc.EvECStall)
				}
				return err
			})
		errs := make([]error, len(jobs))
		sem := make(chan struct{}, runtime.GOMAXPROCS(0))
		var wg sync.WaitGroup
		for i, job := range jobs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				errs[i] = job()
			}()
		}
		wg.Wait()
		paperRunsRes, paperRunsErr = r, errors.Join(errs...)
	})
	if paperRunsErr != nil {
		t.Fatal(paperRunsErr)
	}
	return paperRunsRes
}

// ablation collects one experiment of the paper-layout MCF program at
// ablationTrips, built with or without -xhwcprof, and reduces it.
func ablation(hwcprof bool, counters string) (*analyzer.Analyzer, error) {
	p := paperParams()
	p.Size = ablationTrips
	p.HWCProf = hwcprof
	tg, err := p.Target()
	if err != nil {
		return nil, err
	}
	prog, err := cc.Compile(tg.Sources, tg.Options)
	if err != nil {
		return nil, err
	}
	res, err := core.CollectRun(context.Background(), prog, counters, collect.Options{Machine: tg.Machine, Input: tg.Input})
	if err != nil {
		return nil, err
	}
	return core.Analyze(res.Exp)
}

// structShare is the named struct types' share of ev across all data
// objects.
func structShare(a *analyzer.Analyzer, ev hwc.Event, structs ...string) float64 {
	var n uint64
	for _, name := range structs {
		id, _ := a.Tab.TypeByName(name)
		n += a.ObjMetrics(id).Events[ev]
	}
	return float64(n) / float64(a.Total().Events[ev])
}

func TestSampleFigures(t *testing.T) {
	s := paperStudy(t)
	figs := s.Figures()
	files, err := filepath.Glob(filepath.Join(sampleFigures, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(figs) {
		t.Errorf("%s holds %d files, the study renders %d", sampleFigures, len(files), len(figs))
	}
	for _, fig := range figs {
		var got bytes.Buffer
		if err := fig.Render(&got); err != nil {
			t.Errorf("%s: %v", fig.File, err)
			continue
		}
		want, err := os.ReadFile(filepath.Join(sampleFigures, fig.File))
		if err != nil {
			t.Errorf("%v; regenerate with: %s", err, regenerate)
			continue
		}
		if line, g, w := firstDiff(got.String(), string(want)); line != 0 {
			t.Errorf("%s differs from %s at line %d:\n got: %q\nwant: %q\nregenerate with: %s",
				fig.File, sampleFigures, line, g, w, regenerate)
		}
	}
}

// firstDiff returns the first line (1-based) at which a and b differ and
// both versions of it, or 0 when they are equal.
func firstDiff(a, b string) (line int, la, lb string) {
	if a == b {
		return 0, "", ""
	}
	as, bs := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; ; i++ {
		if i >= len(as) || i >= len(bs) || as[i] != bs[i] {
			if i < len(as) {
				la = as[i]
			}
			if i < len(bs) {
				lb = bs[i]
			}
			return i + 1, la, lb
		}
	}
}

// paperRow is one number: what it measures, the paper's value ("" where
// the paper gives none), the value EXPERIMENTS.md records and the
// measured one.
type paperRow struct{ name, paper, want, got string }

func TestPaperNumbers(t *testing.T) {
	s := paperStudy(t)
	r := loadPaperRuns(t)
	a := s.Analyzer
	tot := a.Total()
	expA, expB := a.Exps[0], a.Exps[1]
	base := r.stats[0]
	speedup := func(i int) string {
		return pct(1 - float64(r.stats[i].Cycles)/float64(base.Cycles))
	}

	rows := []paperRow{
		{"Fig. 1: E$ stall share of run time", "~54%", "60.7%",
			pct(a.Seconds(hwc.EvECStall, tot.Events[hwc.EvECStall]) / s.Seconds)},
		{"Fig. 1: DTLB miss cost (100 cycles/miss)", "~5%", "3.4%",
			pct(float64(100*a.Count(hwc.EvDTLBMiss, tot.Events[hwc.EvDTLBMiss])) / float64(s.Cycles))},
		{"Fig. 2: refresh_potential User CPU share", "51.1%", "53.1%",
			pct(s.FunctionShare("refresh_potential", hwc.EvECStall, true))},
		{"Fig. 2: refresh_potential E$ stall share", "61.9%", "63.8%",
			pct(s.FunctionShare("refresh_potential", hwc.EvECStall, false))},
		{"Fig. 2: refresh_potential DTLB miss share", "88.0%", "84.5%",
			pct(s.FunctionShare("refresh_potential", hwc.EvDTLBMiss, false))},
		{"Fig. 2: primal_bea_mpp User CPU share", "23.2%", "38.0%",
			pct(s.FunctionShare("primal_bea_mpp", hwc.EvECStall, true))},
		{"Fig. 5: top-5 E$ read-miss PCs in the two hot functions", "5/5", "5/5", topPCsInHot(a)},
		{"Fig. 6: structure:arc E$ stall share", "55.9%", "50.1%", pct(s.ObjectShare("arc", hwc.EvECStall))},
		{"Fig. 6: structure:node E$ stall share", "41.9%", "48.2%", pct(s.ObjectShare("node", hwc.EvECStall))},
		{"Fig. 6: effectiveness, E$ stall", ">99%", "100.0%", pct(a.Effectiveness(hwc.EvECStall))},
		{"Fig. 6: effectiveness, E$ read misses", "~100%", "100.0%", pct(a.Effectiveness(hwc.EvECRdMiss))},
		{"Fig. 6: effectiveness, DTLB misses", "100%", "100.0%", pct(a.Effectiveness(hwc.EvDTLBMiss))},
		{"Fig. 6: effectiveness, E$ refs", "~94%", "88.9%", pct(a.Effectiveness(hwc.EvECRef))},
		{"Fig. 6: structure:arc DTLB miss share", "70.0%", "82.9%", pct(s.ObjectShare("arc", hwc.EvDTLBMiss))},
		{"Fig. 6: structure:node DTLB miss share", "29.7%", "16.6%", pct(s.ObjectShare("node", hwc.EvDTLBMiss))},
		{"Fig. 7: child+orientation+potential share of node E$ stall", "~85%", "62.8%", hotMembers(a)},
		{"Fig. 7: 120-byte nodes split across 512-byte E$ lines", "28%", "21.9%", splitNodes(a)},
		{"§4: EA-resolved E$ stall events in the Heap segment", "", "98.3%", heapShare(a)},
		{"§4: source lines fed back for prefetching", "", "6", fmt.Sprint(r.feedback)},
		{"§4: cycles saved by the prefetch feedback (upper bound)", "", "23.7%",
			pct(1 - float64(r.prefetch)/float64(base.Cycles))},
		{"§4: program output with the prefetch feedback", "", "identical",
			sameOutputs([]*mcf.Output{r.outputs[0], r.prefetchOut})},
		{"§2.1: -xhwcprof run-time overhead", "~1.3%", "3.0%",
			pct(float64(base.Cycles)/float64(r.stats[1].Cycles) - 1)},
		{"§3.3: struct layout speedup", "16.2%", "2.8%", speedup(2)},
		{"§3.3: -xpagesize_heap=512k speedup", "3.9%", "3.4%", speedup(3)},
		{"§3.3: combined speedup", "20.7%", "6.3%", speedup(4)},
		{"§3.3: program output of every variant", "identical", "identical", sameOutputs(r.outputs)},
		{"Ablation: arc+node share of E$ stall, no backtracking (600 trips)", "", "36.9%", pct(r.noBacktrack)},
		{"Ablation: arc+node share of E$ stall, with backtracking", "", "98.2%",
			pct(structShare(a, hwc.EvECStall, "arc", "node"))},
		{"Ablation: E$ stall effectiveness without -xhwcprof (600 trips)", "", "0.0%", pct(r.noHWCProf)},
		{"Ablation: E$ stall effectiveness with -xhwcprof", "", "100.0%", pct(a.Effectiveness(hwc.EvECStall))},
		{"unarmed baseline: instructions", "", "980,504,524", commas(base.Instrs)},
		{"unarmed baseline: E$ stall cycles", "", "1,951,831,774", commas(base.ECStallCycles)},
		{"experiment A: Meta.Stats = unarmed baseline, ClockTicks aside", "", "equal", sameStats(expA.Meta.Stats, base)},
		{"experiment B: Meta.Stats = unarmed baseline, ClockTicks aside", "", "equal", sameStats(expB.Meta.Stats, base)},
		{"experiment A: clock ticks", "", "3,572", commas(expA.Meta.Stats.ClockTicks)},
		{"experiment A: E$ stall events × interval of the exact count", "", "19,517 × 100,003 of 1,951,831,774", reconcile(expA, 0)},
		{"experiment A: E$ read-miss events × interval of the exact count", "", "3,455 × 2,003 of 6,920,715", reconcile(expA, 1)},
		{"experiment B: E$ ref events × interval of the exact count", "", "6,371 × 10,007 of 63,762,318", reconcile(expB, 0)},
		{"experiment B: DTLB miss events × interval of the exact count", "", "1,090 × 997 of 1,087,594", reconcile(expB, 1)},
	}
	cycles := []string{"3,214,496,725", "3,119,497,670", "3,126,060,392", "3,105,737,825", "3,012,711,892"}
	for i, v := range r.variants {
		rows = append(rows, paperRow{"cycles: " + v.Name, "", cycles[i], commas(r.stats[i].Cycles)})
	}
	for _, row := range rows {
		t.Logf("%-66s paper %-9s measured %s", row.name, row.paper, row.got)
		if row.got != row.want {
			t.Errorf("%s: measured %s, EXPERIMENTS.md records %s", row.name, row.got, row.want)
		}
	}
}

// pct formats a share as EXPERIMENTS.md prints it.
func pct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }

// commas formats a count with thousands separators.
func commas(n uint64) string {
	s := fmt.Sprint(n)
	for i := len(s) - 3; i > 0; i -= 3 {
		s = s[:i] + "," + s[i:]
	}
	return s
}

// topPCsInHot counts the top five PCs by E$ read misses that lie in
// refresh_potential or primal_bea_mpp.
func topPCsInHot(a *analyzer.Analyzer) string {
	rows := a.PCs(analyzer.ByEvent(hwc.EvECRdMiss), 5)
	in := 0
	for _, r := range rows {
		if fn := a.Tab.FuncAt(r.PC); fn != nil && (fn.Name == "refresh_potential" || fn.Name == "primal_bea_mpp") {
			in++
		}
	}
	return fmt.Sprintf("%d/%d", in, len(rows))
}

// hotMembers is the share of structure:node's E$ stall carried by the
// three members the paper calls out.
func hotMembers(a *analyzer.Analyzer) string {
	id, _ := a.Tab.TypeByName("node")
	var hot uint64
	for _, m := range a.Members(id) {
		for _, name := range []string{" child}", " orientation}", " potential}"} {
			if strings.HasSuffix(m.Name, name) {
				hot += m.M.Events[hwc.EvECStall]
			}
		}
	}
	return pct(float64(hot) / float64(a.ObjMetrics(id).Events[hwc.EvECStall]))
}

func splitNodes(a *analyzer.Analyzer) string {
	st, err := a.SplitObjects("node")
	if err != nil {
		return err.Error()
	}
	return pct(st.Fraction())
}

// heapShare is the Heap segment's share of the E$ stall events whose
// effective address was recovered.
func heapShare(a *analyzer.Analyzer) string {
	var heap, all uint64
	for _, r := range a.Segments() {
		all += r.M.Events[hwc.EvECStall]
		if r.Seg.String() == "Heap" {
			heap += r.M.Events[hwc.EvECStall]
		}
	}
	return pct(float64(heap) / float64(all))
}

func sameOutputs(outs []*mcf.Output) string {
	for i, o := range outs[1:] {
		if *o != *outs[0] {
			return fmt.Sprintf("variant %d: %+v, baseline %+v", i+1, *o, *outs[0])
		}
	}
	return "identical"
}

// sameStats reports whether an armed run's exact statistics equal an
// unarmed run's: arming counters and clock profiling must not change
// the simulated execution.
func sameStats(armed, unarmed machine.Stats) string {
	av, uv := reflect.ValueOf(armed), reflect.ValueOf(unarmed)
	var diffs []string
	for i := range av.NumField() {
		name := av.Type().Field(i).Name
		if a, u := av.Field(i).Uint(), uv.Field(i).Uint(); name != "ClockTicks" && a != u {
			diffs = append(diffs, fmt.Sprintf("%s %d, unarmed %d", name, a, u))
		}
	}
	if len(diffs) == 0 {
		return "equal"
	}
	return strings.Join(diffs, "; ")
}

// reconcile checks one armed counter's sampled total against the
// machine's exact count: events × interval never exceeds it, and falls
// short by less than one interval, plus one overflow still pending
// (within its skid) when the program exited.
func reconcile(e *experiment.Experiment, pic int) string {
	cs := e.Meta.Counters[pic]
	st := e.Meta.Stats
	exact := map[hwc.Event]uint64{
		hwc.EvECStall:  st.ECStallCycles,
		hwc.EvECRdMiss: st.ECRdMisses,
		hwc.EvECRef:    st.ECRefs,
		hwc.EvDTLBMiss: st.DTLBMisses,
	}[cs.Event]
	n := uint64(e.EventCount(pic))
	got := fmt.Sprintf("%s × %s of %s", commas(n), commas(cs.Interval), commas(exact))
	if sampled := n * cs.Interval; sampled > exact || exact-sampled >= 2*cs.Interval {
		return got + fmt.Sprintf(": sampled %d outside (exact − 2 intervals, exact]", sampled)
	}
	return got
}
