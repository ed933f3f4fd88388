package core

import (
	"context"
	"errors"
	"fmt"
	"io"

	"dsprof/internal/advisor"
	"dsprof/internal/analyzer"
	"dsprof/internal/cc"
	"dsprof/internal/hwc"
	"dsprof/internal/machine"
	"dsprof/internal/mcf"
	"dsprof/internal/tlb"
)

// repro.go is the paper-reproduction harness: it runs the MCF case study
// (§3) end to end and regenerates each figure of the evaluation
// (Study.Figures) and each timed variant (PaperVariants). The study runs
// on a proportionally scaled system (see StudyMachine) with instance
// sizes chosen so the working-set:cache ratios match the paper's regime;
// EXPERIMENTS.md records paper-vs-measured values, which the root
// package's TestSampleFigures and TestPaperNumbers check.

// StudyParams configure one profiling study of a bundled workload.
type StudyParams struct {
	Workload *Workload
	// Layout is one of Workload.Layouts; "" selects the first.
	Layout string
	// Size is the instance size (MCF trips, n-body papers); 0 selects
	// Workload.DefaultSize.
	Size int
	Seed uint64
	// PageSizeHeap compiles with -xpagesize_heap (0 = default 8 KB).
	PageSizeHeap uint64
	// HWCProf disables -xhwcprof when false (overhead experiment).
	HWCProf bool
	Machine *machine.Config
}

// DefaultStudy returns the standard scaled study setup for a workload.
func DefaultStudy(w *Workload) StudyParams {
	return StudyParams{Workload: w, Layout: w.Layouts[0], Size: w.DefaultSize, Seed: DefaultSeed, HWCProf: true}
}

// Target builds the study's program sources, compile options, input and
// machine: the advisor's rebuild-and-re-run target, and what every study
// run compiles and executes.
func (p StudyParams) Target() (advisor.Target, error) {
	w := p.Workload
	if w == nil {
		return advisor.Target{}, errors.New("core: study has no workload")
	}
	l, err := w.Layout(p.Layout)
	if err != nil {
		return advisor.Target{}, err
	}
	size := p.Size
	if size == 0 {
		size = w.DefaultSize
	}
	cfg := StudyMachine()
	if p.Machine != nil {
		cfg = *p.Machine
	}
	return advisor.Target{
		Sources: w.Sources(l),
		Options: cc.Options{
			Name:         w.progName(l),
			HWCProf:      p.HWCProf,
			PageSizeHeap: p.PageSizeHeap,
		},
		Input:   w.Generate(size, p.Seed),
		Machine: &cfg,
	}, nil
}

// StudyMachine is the scaled stand-in for the paper's 900 MHz
// UltraSPARC-III Cu (Sun Fire 280R): cache line sizes and associativities
// are the real machine's; capacities are scaled 1/16 so that the scaled
// MCF instances stress the hierarchy exactly as the full-size benchmark
// stressed the real 8 MB E$.
func StudyMachine() machine.Config {
	cfg := machine.DefaultConfig()
	cfg.DCache.SizeBytes = 4 << 10   // 64 KB / 16
	cfg.ECache.SizeBytes = 512 << 10 // 8 MB / 16
	cfg.TLB = tlb.Config{Entries: 128, Assoc: 2}
	cfg.MaxInstrs = 20_000_000_000
	return cfg
}

// Study is a completed MCF profiling study: the merged analyzer plus the
// raw run results.
type Study struct {
	Params   StudyParams
	Analyzer *analyzer.Analyzer
	Output   *mcf.Output
	Cycles   uint64
	Seconds  float64
}

// RunStudy runs the paper's MCF case study for p, which must describe an
// MCF study: it builds the program and instance through p.Target, runs
// the paper's two profiled experiments and merges them.
func RunStudy(p StudyParams) (*Study, error) {
	t, err := p.Target()
	if err != nil {
		return nil, err
	}
	prog, err := cc.Compile(t.Sources, t.Options)
	if err != nil {
		return nil, err
	}
	a, resA, _, err := ProfilePaperStyle(context.TODO(), prog, t.Input, t.Machine, PaperIntervals{})
	if err != nil {
		return nil, err
	}
	out, err := mcfOutput(resA.Machine.OutputLongs())
	if err != nil {
		return nil, err
	}
	st := resA.Machine.Stats()
	return &Study{
		Params:   p,
		Analyzer: a,
		Output:   out,
		Cycles:   st.Cycles,
		Seconds:  resA.Machine.Seconds(st.Cycles),
	}, nil
}

// TimeMCF runs an MCF study's program once without profiling and returns
// the machine's exact statistics — their Cycles are the measurement
// behind the §3.3 speedup and §2.1 overhead experiments.
func TimeMCF(p StudyParams) (machine.Stats, *mcf.Output, error) {
	t, err := p.Target()
	if err != nil {
		return machine.Stats{}, nil, err
	}
	prog, err := cc.Compile(t.Sources, t.Options)
	if err != nil {
		return machine.Stats{}, nil, err
	}
	m, err := RunOnce(prog, t.Input, t.Machine)
	if err != nil {
		return machine.Stats{}, nil, err
	}
	out, err := mcfOutput(m.OutputLongs())
	if err != nil {
		return machine.Stats{}, nil, err
	}
	return m.Stats(), out, nil
}

// Variant is one configuration of the paper's MCF timing experiments.
type Variant struct {
	Name   string
	Params StudyParams
}

// PaperVariants returns the five configurations dsprof speedups times
// from base: the profiled baseline, the §2.1 build without -xhwcprof,
// and the §3.3 optimized struct layout, 512 KB heap pages and both.
func PaperVariants(base StudyParams) []Variant {
	noProf := base
	noProf.HWCProf = false
	opt := base
	opt.Layout = mcf.LayoutOptimized.String()
	pages := base
	pages.PageSizeHeap = 512 << 10
	both := opt
	both.PageSizeHeap = 512 << 10
	return []Variant{
		{"baseline (-xhwcprof, paper layout)", base},
		{"without -xhwcprof (§2.1)", noProf},
		{"optimized struct layout (§3.3)", opt},
		{"-xpagesize_heap=512k (§3.3)", pages},
		{"combined (§3.3)", both},
	}
}

// Figure is one file of the study's evaluation: its name and its
// renderer.
type Figure struct {
	File   string
	Render func(io.Writer) error
}

// Figures returns the files dsprof study writes, in order: the paper's
// Figures 1-7, then the §4 address-space, source-line and
// prefetch-feedback reports.
func (s *Study) Figures() []Figure {
	a := s.Analyzer
	return []Figure{
		{"fig1-total.txt", func(w io.Writer) error {
			l, _ := s.Params.Workload.Layout(s.Params.Layout) // RunStudy resolved it
			fmt.Fprintf(w, "Figure 1: performance metrics for <Total>  (trips=%d, layout=%s)\n\n",
				s.Params.Size, s.Params.Workload.Layouts[l])
			a.TotalReport(w)
			return nil
		}},
		{"fig2-functions.txt", func(w io.Writer) error {
			fmt.Fprintf(w, "Figure 2: the function list\n\n")
			a.FunctionList(w, analyzer.ByUserCPU)
			return nil
		}},
		{"fig3-annotated-source.txt", func(w io.Writer) error {
			fmt.Fprintf(w, "Figure 3: annotated source of refresh_potential\n\n")
			return a.AnnotatedSource(w, "refresh_potential")
		}},
		{"fig4-annotated-disasm.txt", func(w io.Writer) error {
			fmt.Fprintf(w, "Figure 4: annotated disassembly of refresh_potential\n\n")
			return a.AnnotatedDisasm(w, "refresh_potential")
		}},
		{"fig5-pcs.txt", func(w io.Writer) error {
			fmt.Fprintf(w, "Figure 5: PCs ranked by E$ Read Misses\n\n")
			a.PCList(w, analyzer.ByEvent(hwc.EvECRdMiss), 17)
			return nil
		}},
		{"fig6-data-objects.txt", func(w io.Writer) error {
			// Plus the backtracking-effectiveness summary the paper
			// derives from the data-object view.
			fmt.Fprintf(w, "Figure 6: data objects ranked by E$ Stall Cycles\n\n")
			a.DataObjectList(w, analyzer.ByEvent(hwc.EvECStall))
			fmt.Fprintf(w, "\n")
			a.EffectivenessReport(w)
			return nil
		}},
		{"fig7-node-members.txt", func(w io.Writer) error {
			// Plus the split-object statistic discussed with it.
			fmt.Fprintf(w, "Figure 7: data object structure:node expansion\n\n")
			if err := a.MemberList(w, "node"); err != nil {
				return err
			}
			st, err := a.SplitObjects("node")
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "\n%d-byte node objects split across %d-byte E$ lines: %d of %d (%.0f%%)\n",
				st.Size, st.LineBytes, st.Split, st.Total, 100*st.Fraction())
			return nil
		}},
		{"addrspace.txt", func(w io.Writer) error {
			a.AddressSpaceReport(w, analyzer.ByEvent(hwc.EvECRdMiss), 10)
			return nil
		}},
		{"lines.txt", func(w io.Writer) error {
			a.LineList(w, analyzer.ByEvent(hwc.EvECStall), 20)
			return nil
		}},
		{"feedback.txt", func(w io.Writer) error {
			a.WriteFeedbackFile(w, 0.01)
			return nil
		}},
	}
}

// FunctionShare returns a function's share (0..1) of the given metric,
// for shape assertions in tests and EXPERIMENTS.md.
func (s *Study) FunctionShare(fn string, ev hwc.Event, clock bool) float64 {
	rows := s.Analyzer.Functions(analyzer.ByUserCPU)
	var total, val float64
	for _, r := range rows {
		if r.Name == "<Total>" {
			if clock {
				total = float64(r.M.Ticks)
			} else {
				total = float64(r.M.Events[ev])
			}
		}
		if r.Name == fn {
			if clock {
				val = float64(r.M.Ticks)
			} else {
				val = float64(r.M.Events[ev])
			}
		}
	}
	if total == 0 {
		return 0
	}
	return val / total
}

// ObjectShare returns a struct type's share (0..1) of the given metric
// across all data objects.
func (s *Study) ObjectShare(structName string, ev hwc.Event) float64 {
	id, ty := s.Analyzer.Tab.TypeByName(structName)
	if ty == nil {
		return 0
	}
	m := s.Analyzer.ObjMetrics(id)
	total := s.Analyzer.Total()
	if total.Events[ev] == 0 {
		return 0
	}
	return float64(m.Events[ev]) / float64(total.Events[ev])
}
