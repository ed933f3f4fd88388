// Package core is the top-level façade of the data-space profiling
// system: one-call helpers that chain the compiler, the collector and the
// analyzer (compile → collect → analyze), the bundled workloads every
// tool shares (see workload.go), and the paper-reproduction harness for
// the MCF case study (see repro.go).
//
// The pipeline mirrors the paper's user model (§2): compile the target
// with the memory-profiling options, run collect with clock- and/or
// hardware-counter profiling, and analyze the resulting experiments.
package core

import (
	"context"
	"fmt"
	"sync"

	"dsprof/internal/analyzer"
	"dsprof/internal/asm"
	"dsprof/internal/cc"
	"dsprof/internal/collect"
	"dsprof/internal/experiment"
	"dsprof/internal/machine"
)

// Compile builds an MC program with the paper's memory-profiling flags
// enabled by default (-xhwcprof -xdebugformat=dwarf).
func Compile(name string, sources []cc.Source, opts *cc.Options) (*asm.Program, error) {
	o := cc.Options{HWCProf: true}
	if opts != nil {
		o = *opts
	}
	if o.Name == "" {
		o.Name = name
	}
	return cc.Compile(sources, o)
}

// CollectRun performs one profiled run, like a collect(1) invocation:
// counterSpec uses the paper's -h syntax ("+ecstall,lo,+ecrm,on") and
// replaces opts.Counters; opts carries everything else (clock
// profiling and its interval, machine, input, provenance). The run
// stops with the context's error as soon as ctx is cancelled, which is
// how profiling services (internal/profd) bound each scheduled job.
func CollectRun(ctx context.Context, prog *asm.Program, counterSpec string, opts collect.Options) (*collect.Result, error) {
	specs, err := collect.ParseCounterSpec(counterSpec)
	if err != nil {
		return nil, err
	}
	opts.Counters = specs
	return collect.RunContext(ctx, prog, opts)
}

// Analyze reduces one or more experiments.
func Analyze(exps ...*experiment.Experiment) (*analyzer.Analyzer, error) {
	return analyzer.New(exps...)
}

// ProfilePaperStyle performs the paper's full two-experiment collection
// (§3.1): experiment A with clock profiling plus E$ stall cycles and E$
// read misses, experiment B with E$ references and DTLB misses, all with
// apropos backtracking — then merges them in one analyzer. The two runs
// are independent and execute concurrently; A's error is reported
// first.
//
// The overflow intervals are chosen from the run length budget: pass the
// expected total cycles (0 picks conservative defaults).
func ProfilePaperStyle(prog *asm.Program, input []int64, cfg *machine.Config, intervals PaperIntervals) (*analyzer.Analyzer, *collect.Result, *collect.Result, error) {
	iv := intervals.WithDefaults()
	ctx := context.Background()
	specA, specB := iv.Specs()
	var (
		resB *collect.Result
		errB error
		wg   sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		resB, errB = CollectRun(ctx, prog, specB, collect.Options{Machine: cfg, Input: input})
	}()
	resA, err := CollectRun(ctx, prog, specA, collect.Options{
		ClockProfile:        true,
		ClockIntervalCycles: iv.ClockTick,
		Machine:             cfg,
		Input:               input,
	})
	wg.Wait()
	if err != nil {
		return nil, nil, nil, fmt.Errorf("experiment A: %w", err)
	}
	if errB != nil {
		return nil, nil, nil, fmt.Errorf("experiment B: %w", errB)
	}
	a, err := Analyze(resA.Exp, resB.Exp)
	if err != nil {
		return nil, nil, nil, err
	}
	return a, resA, resB, nil
}

// PaperIntervals are the overflow intervals for the four counters of the
// paper's study. Zero fields get defaults suited to scaled runs (prime
// intervals, like the paper).
type PaperIntervals struct {
	ECStall  uint64
	ECRdMiss uint64
	ECRef    uint64
	DTLBMiss uint64
	// ClockTick is the clock-profiling interval in cycles; the default is
	// ~1 ms of the simulated clock (the paper's "high" rate), which gives
	// scaled runs enough samples for stable CPU-time shares.
	ClockTick uint64
}

// WithDefaults fills each zero interval with its default.
func (p PaperIntervals) WithDefaults() PaperIntervals {
	if p.ECStall == 0 {
		p.ECStall = 100003
	}
	if p.ECRdMiss == 0 {
		p.ECRdMiss = 2003
	}
	if p.ECRef == 0 {
		p.ECRef = 10007
	}
	if p.DTLBMiss == 0 {
		p.DTLBMiss = 997
	}
	if p.ClockTick == 0 {
		p.ClockTick = 900007 // ~1 ms at 900 MHz, prime
	}
	return p
}

// Specs returns the -h counter specifications of the paper's experiment
// A (E$ stall cycles, E$ read misses) and experiment B (E$ references,
// DTLB misses), with defaults applied.
func (p PaperIntervals) Specs() (a, b string) {
	p = p.WithDefaults()
	return fmt.Sprintf("+ecstall,%d,+ecrm,%d", p.ECStall, p.ECRdMiss),
		fmt.Sprintf("+ecref,%d,+dtlbm,%d", p.ECRef, p.DTLBMiss)
}

// RunOnce executes a program without profiling and returns the machine
// (for timing comparisons such as the §3.3 speedup experiments).
func RunOnce(prog *asm.Program, input []int64, cfg *machine.Config) (*machine.Machine, error) {
	c := machine.DefaultConfig()
	if cfg != nil {
		c = *cfg
	}
	if prog.HeapPageSize != 0 {
		c.HeapPageSize = prog.HeapPageSize
	}
	m, err := machine.New(c)
	if err != nil {
		return nil, err
	}
	if err := m.LoadProgram(prog.Text, prog.Data, prog.Entry); err != nil {
		return nil, err
	}
	m.SetInput(input)
	if err := m.Run(); err != nil {
		return m, err
	}
	return m, nil
}
