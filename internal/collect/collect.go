// Package collect implements the data collector: it runs a target program
// on the simulated machine with clock profiling and/or hardware counter
// overflow profiling, performs the apropos backtracking search and
// effective-address recovery at signal-delivery time, and writes the
// resulting experiment.
//
// This is the paper's collect(1) command. The two hardware counter
// registers limit one run to two counters; profiling all four counters of
// the paper's MCF study takes two collect runs, exactly as in the paper.
package collect

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"dsprof/internal/asm"
	"dsprof/internal/chunk"
	"dsprof/internal/experiment"
	"dsprof/internal/faultfs"
	"dsprof/internal/hwc"
	"dsprof/internal/isa"
	"dsprof/internal/machine"
)

// Options configure one profiled run.
type Options struct {
	// ClockProfile enables clock profiling (-p on).
	ClockProfile bool
	// ClockIntervalCycles overrides the ~10ms default tick (0 = default).
	ClockIntervalCycles uint64
	// Counters arms up to two hardware counters (-h spec,interval,...).
	Counters []experiment.CounterSpec
	// Machine selects the simulated system; zero value means the default
	// UltraSPARC-III-like configuration.
	Machine *machine.Config
	// Input is the program's input vector.
	Input []int64
	// Label tags the experiment's provenance (e.g. "baseline",
	// "reorder:arc"); it is recorded in the experiment meta.
	Label string
	// SpoolDir, when non-empty, streams counter events into format-v2
	// shard files in this directory as they are produced, instead of
	// buffering the whole event stream in memory. Collection memory
	// then stays flat however long the run, and a cancelled run still
	// leaves every delivered event on disk (the partial tail shard is
	// flushed on every exit path). Point it at the experiment output
	// directory and Save will leave the files in place.
	SpoolDir string
	// Provenance records allocation-site provenance: every heap block's
	// (site, instance, addr, size, birth, death) streams into the
	// experiment as a provenance shard file (prov.pv2) alongside the
	// counter-event shards. Off by default; the counter-event stream,
	// reports, and fast-path behaviour are byte-identical either way.
	Provenance bool
	// SingleStep drives the machine with the instruction-granular
	// reference stepper instead of the batched fast path. The produced
	// experiment is identical either way (the differential golden test
	// asserts this); the option exists for that test and for debugging.
	SingleStep bool
	// FS is the filesystem spooled writes go through; nil means the real
	// filesystem. The fault-injection tests and the crash-point soak
	// harness plug in faultfs.Injected / faultfs.Recorder here.
	FS faultfs.FS
	// SpoolShardEvents overrides the spool's shard size (0 = the format
	// default). Small shards make short test runs cross many shard
	// boundaries, which is what the crash-recovery soak wants.
	SpoolShardEvents int
	// CPUProfile, when non-empty, writes a pprof CPU profile of the
	// profiled run — machine execution plus event delivery, excluding
	// setup and experiment Save — to this host file. MemProfile writes a
	// heap profile when the run ends. Both profile the collector itself
	// (the host Go process), not the simulated target; they exist for
	// performance work on the execution engine. CPU profiling is
	// process-global, so concurrent collects cannot both request it.
	CPUProfile string
	MemProfile string
}

// maxBacktrack bounds the apropos backtracking search, in instructions.
const maxBacktrack = 8

// Accuracy counts how one PIC's delivered events were attributed against
// the ground truth the simulator knows but a real machine would not
// (OverflowEvent.TruePC/TrueEA). It is counted at delivery, so it costs
// no memory per event, and is never written into the experiment.
type Accuracy struct {
	Events    int // events delivered
	PCRight   int // candidate trigger PC equal to the true trigger PC
	EAClaimed int // events that claimed an effective address
	EARight   int // claimed EAs equal to the true trigger's EA
}

// Result is the outcome of a profiled run.
type Result struct {
	Exp     *experiment.Experiment
	Machine *machine.Machine
	// Accuracy holds each PIC's attribution counts, spooled or not.
	Accuracy [2]Accuracy
}

// DefaultClockIntervalCycles is ~10 ms at the configured clock, as a
// prime count of cycles (the paper chooses prime intervals to avoid
// correlated samples).
func DefaultClockIntervalCycles(clockHz uint64) uint64 {
	c := clockHz / 100
	if c%2 == 0 {
		c++
	}
	return c
}

// ParseCounterSpec parses a collect -h style counter list:
// "+ecstall,lo,+ecrm,on" — pairs of (counter, interval) where a leading
// "+" requests apropos backtracking.
func ParseCounterSpec(spec string) ([]experiment.CounterSpec, error) {
	if spec == "" {
		return nil, nil
	}
	parts := strings.Split(spec, ",")
	if len(parts)%2 != 0 {
		return nil, fmt.Errorf("collect: counter spec %q must be name,interval pairs", spec)
	}
	var out []experiment.CounterSpec
	for i := 0; i < len(parts); i += 2 {
		name := parts[i]
		bt := strings.HasPrefix(name, "+")
		name = strings.TrimPrefix(name, "+")
		ev, err := hwc.ParseEvent(name)
		if err != nil {
			return nil, err
		}
		ivName := parts[i+1]
		// Accept the paper's abbreviations.
		switch ivName {
		case "lo":
			ivName = "low"
		case "hi":
			ivName = "high"
		}
		iv, err := hwc.ParseInterval(ivName, ev)
		if err != nil {
			return nil, err
		}
		out = append(out, experiment.CounterSpec{Event: ev, Interval: iv, Backtrack: bt})
	}
	if len(out) > 2 {
		return nil, fmt.Errorf("collect: at most two counters (two counter registers), got %d", len(out))
	}
	return out, nil
}

// Run executes prog under profiling and returns the experiment.
func Run(prog *asm.Program, opts Options) (*Result, error) {
	return RunContext(context.Background(), prog, opts)
}

// writeMemProfile snapshots the host heap into a pprof profile after a
// garbage collection, so the profile shows live retention (the spool
// buffers, translation cache, experiment event slices) rather than
// collectable garbage.
func writeMemProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("collect: mem profile: %w", err)
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("collect: mem profile: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("collect: mem profile: %w", err)
	}
	return nil
}

// cancelCheckStride is how many instructions execute between context
// cancellation checks in RunContext: coarse enough that the check is
// free relative to simulation, fine enough that cancellation lands
// within a millisecond of wall-clock time.
const cancelCheckStride = 1 << 15

// runMachine drives m to completion, honouring ctx cancellation. With a
// non-cancellable context it defers to the machine's own run loop;
// otherwise it runs fast-path batches of cancelCheckStride instructions
// between cancellation checks, so a cancellable run keeps fast-path
// throughput.
func runMachine(ctx context.Context, m *machine.Machine, singleStep bool) error {
	if singleStep {
		for !m.Halted() {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("collect: run aborted: %w", err)
			}
			for i := 0; i < cancelCheckStride && !m.Halted(); i++ {
				if err := m.Step(); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if ctx.Done() == nil {
		return m.Run()
	}
	for !m.Halted() {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("collect: run aborted: %w", err)
		}
		if err := m.RunFor(cancelCheckStride); err != nil {
			return err
		}
	}
	return nil
}

// records accumulates one run's in-memory records in chunked storage
// (package chunk), copying each delivered callstack out of the machine's
// scratch buffer into a chunked arena: a delivery appends without
// allocating, and no record is copied again until materialise builds the
// experiment's slices once, at exact length.
type records struct {
	hwc    [2]chunk.List[experiment.HWCEvent]
	clock  chunk.List[experiment.ClockEvent]
	prov   chunk.List[machine.ProvRecord]
	stacks chunk.List[uint64] // callstacks of hwc and clock records
	// spoolStacks[pic] holds the callstacks of the records spool[pic] has
	// buffered but not yet encoded; it is reset at every shard flush, so
	// spooled callstacks do not accumulate.
	spoolStacks [2]chunk.List[uint64]
}

// materialise moves the records into exp, leaving r empty so a retained
// machine (and the hooks that reach r) keeps no second copy. Streams that
// recorded nothing stay nil.
func (r *records) materialise(exp *experiment.Experiment) {
	for pic := range r.hwc {
		exp.HWC[pic] = r.hwc[pic].Slice()
	}
	exp.Clock = r.clock.Slice()
	exp.Prov = r.prov.Slice()
}

// RunContext is Run with job-level cancellation: the profiled run stops
// (with the context's error) as soon as ctx is cancelled or times out.
// The returned Result still carries the partial experiment so callers
// can inspect it. Unless opts.SpoolDir is set, nothing is written to
// disk here; with it, the shard files and the provisional header hold
// every record delivered before the run ended.
func RunContext(ctx context.Context, prog *asm.Program, opts Options) (*Result, error) {
	cfg := machine.DefaultConfig()
	if opts.Machine != nil {
		cfg = *opts.Machine
	}
	if prog.HeapPageSize != 0 {
		cfg.HeapPageSize = prog.HeapPageSize
	}
	m, err := machine.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := m.LoadProgram(prog.Text, prog.Data, prog.Entry); err != nil {
		return nil, err
	}
	m.SetInput(opts.Input)

	exp := &experiment.Experiment{Prog: prog}
	res := &Result{Exp: exp, Machine: m}
	exp.Meta.Counters = make([]experiment.CounterSpec, 2)
	var recs records

	var cmd strings.Builder
	cmd.WriteString("collect")

	if opts.ClockProfile {
		tick := opts.ClockIntervalCycles
		if tick == 0 {
			tick = DefaultClockIntervalCycles(cfg.ClockHz)
		}
		m.ClockTickCycles = tick
		exp.Meta.ClockProfiling = true
		exp.Meta.ClockTickCycles = tick
		m.OnClockTick = func(ct *machine.ClockTick) {
			// ct is the machine's record, valid only during the callback.
			recs.clock.Add(experiment.ClockEvent{
				PC: ct.PC, Callstack: recs.stacks.Copy(ct.Callstack), Cycles: ct.Cycles,
			})
		}
		cmd.WriteString(" -p on")
	} else {
		cmd.WriteString(" -p off")
	}

	if len(opts.Counters) > 2 {
		return nil, fmt.Errorf("collect: at most two counters")
	}
	backtrack := [2]bool{}
	for pic, cs := range opts.Counters {
		if cs.Event == hwc.EvNone {
			continue
		}
		if err := m.ArmCounter(pic, cs.Event, cs.Interval); err != nil {
			return nil, err
		}
		exp.Meta.Counters[pic] = cs
		backtrack[pic] = cs.Backtrack && cs.Event.MemoryRelated()
		if pic == 0 {
			cmd.WriteString(" -h ")
		} else {
			cmd.WriteString(",")
		}
		cmd.WriteString(cs.String())
	}
	cmd.WriteString(" " + prog.Name)

	exp.Meta.ProgName = prog.Name
	exp.Meta.Command = cmd.String()
	exp.Meta.When = time.Now()
	exp.Meta.ClockHz = cfg.ClockHz
	exp.Meta.HeapPageSize = cfg.HeapPageSize
	exp.Meta.DCacheLine = cfg.DCache.LineBytes
	exp.Meta.ECacheLine = cfg.ECache.LineBytes
	exp.Meta.Label = opts.Label

	// With a spool directory, counter events and provenance records
	// stream to shard files as they are delivered instead of
	// accumulating in exp.HWC and exp.Prov. The provisional header (meta
	// marked "in progress" + program object) goes in first: from that
	// moment a crash anywhere mid-run leaves a directory
	// experiment.Recover can turn back into an analyzable experiment.
	fsys := faultfs.Or(opts.FS)
	var spool [2]*experiment.ShardWriter[experiment.HWCEvent]
	var provSpool *experiment.ShardWriter[machine.ProvRecord]
	var spoolErr error
	if opts.SpoolDir != "" {
		if err := exp.WriteProvisional(fsys, opts.SpoolDir); err != nil {
			return nil, fmt.Errorf("collect: spool dir: %w", err)
		}
		for pic, cs := range opts.Counters {
			if cs.Event == hwc.EvNone {
				continue
			}
			path := filepath.Join(opts.SpoolDir, experiment.ShardFileName(pic))
			if spool[pic], err = experiment.NewShardWriterFS(fsys, path, pic); err != nil {
				return nil, err
			}
			spool[pic].SetShardEvents(opts.SpoolShardEvents)
		}
		if opts.Provenance {
			path := filepath.Join(opts.SpoolDir, experiment.ProvFileName)
			if provSpool, err = experiment.NewProvWriterFS(fsys, path); err != nil {
				return nil, err
			}
			provSpool.SetShardEvents(opts.SpoolShardEvents)
		}
	}

	if opts.Provenance {
		m.OnProv = func(rec machine.ProvRecord) {
			if provSpool != nil {
				if err := provSpool.Append(rec); err != nil && spoolErr == nil {
					spoolErr = err
				}
				return
			}
			recs.prov.Add(rec)
		}
	}

	// e is the machine's record, valid only during the callback.
	m.OnOverflow = func(e *machine.OverflowEvent) {
		w := spool[e.PIC]
		stacks := &recs.stacks
		if w != nil {
			stacks = &recs.spoolStacks[e.PIC]
		}
		rec := experiment.HWCEvent{
			PIC:         e.PIC,
			DeliveredPC: e.DeliveredPC,
			Callstack:   stacks.Copy(e.Callstack),
			Cycles:      e.Cycles,
		}
		if backtrack[e.PIC] {
			if cand, ok := Backtrack(prog, e.DeliveredPC, e.Event, maxBacktrack); ok {
				rec.CandidatePC = cand
				if ea, ok := RecoverEA(prog, cand, e.DeliveredPC, &e.Regs); ok {
					rec.EA = ea
					rec.HasEA = true
				}
			}
		}
		if w != nil {
			flushed := w.Count()
			err := w.Append(rec)
			if err != nil && spoolErr == nil {
				spoolErr = err
			}
			if err != nil || w.Count() != flushed {
				// The buffered records are encoded (or never will be): no
				// one reads their callstacks again.
				stacks.Reset()
			}
		} else {
			recs.hwc[e.PIC].Add(rec)
		}
		acc := &res.Accuracy[e.PIC]
		acc.Events++
		if rec.CandidatePC == e.TruePC {
			acc.PCRight++
		}
		if rec.HasEA {
			acc.EAClaimed++
			if e.TrueHasEA && rec.EA == e.TrueEA {
				acc.EARight++
			}
		}
	}

	var cpuProf *os.File
	if opts.CPUProfile != "" {
		cpuProf, err = os.Create(opts.CPUProfile)
		if err != nil {
			return nil, fmt.Errorf("collect: cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuProf); err != nil {
			cpuProf.Close()
			return nil, fmt.Errorf("collect: cpu profile: %w", err)
		}
	}
	runErr := runMachine(ctx, m, opts.SingleStep)
	if cpuProf != nil {
		pprof.StopCPUProfile()
		if err := cpuProf.Close(); err != nil && runErr == nil {
			runErr = fmt.Errorf("collect: cpu profile: %w", err)
		}
	}
	if opts.MemProfile != "" {
		if err := writeMemProfile(opts.MemProfile); err != nil && runErr == nil {
			runErr = err
		}
	}
	// Records for blocks still live at halt (or at the cancellation cut)
	// drain into the provenance sink before the writers close.
	m.DrainProv()
	recs.materialise(exp)
	exp.Meta.Stats = m.Stats()
	exp.Allocs = m.Allocs()
	exp.Meta.Output = m.OutputLongs()

	// Close the spool writers on every exit path — including
	// cancellation — so the partial tail shard reaches disk and the
	// experiment keeps every record delivered before the cut.
	for pic, w := range spool {
		path := filepath.Join(opts.SpoolDir, experiment.ShardFileName(pic))
		if err := closeSpool(fsys, exp, w, path); err != nil && spoolErr == nil {
			spoolErr = err
		}
	}
	provPath := filepath.Join(opts.SpoolDir, experiment.ProvFileName)
	if err := closeSpool(fsys, exp, provSpool, provPath); err != nil && spoolErr == nil {
		spoolErr = err
	}
	if spoolErr != nil && runErr == nil {
		runErr = fmt.Errorf("collect: spooling events: %w", spoolErr)
	}

	if runErr != nil {
		exp.Meta.ExitStatus = runErr.Error()
		return res, runErr
	}
	exp.Meta.ExitStatus = "ok"
	return res, nil
}

// closeSpool closes spool writer w, whose file is path, and has exp
// adopt the file, or removes it when the stream recorded nothing. A nil
// w is a stream that was not spooled.
func closeSpool[T any](fsys faultfs.FS, exp *experiment.Experiment, w *experiment.ShardWriter[T], path string) error {
	if w == nil {
		return nil
	}
	err := w.Close()
	if w.Count() == 0 {
		fsys.Remove(path)
	} else {
		exp.AdoptShards(path, w.Shards())
	}
	return err
}

// Backtrack performs the apropos backtracking search: starting from the
// instruction preceding the delivered PC, walk backwards in address order
// until a memory-reference instruction of the class that can raise ev is
// found. The result is the *candidate* trigger PC; it is validated against
// branch-target information during analysis, not here (the paper: "It is
// too expensive to locate branch targets at data collection time").
func Backtrack(prog *asm.Program, deliveredPC uint64, ev hwc.Event, maxInstrs int) (uint64, bool) {
	loadsOnly := ev.LoadsOnly()
	pc := deliveredPC
	for i := 0; i < maxInstrs; i++ {
		pc -= isa.InstrBytes
		in := prog.InstrAt(pc)
		if in == nil {
			return 0, false
		}
		if in.Op.IsMem() {
			if loadsOnly && !in.Op.IsLoad() {
				continue
			}
			return pc, true
		}
	}
	return 0, false
}

// RecoverEA attempts to compute the candidate trigger instruction's
// effective address from the register contents at delivery time. The
// address registers must not have been written by any instruction between
// the candidate and the delivered PC (in address order — the collector
// cannot know the executed path); otherwise the address is unknown.
func RecoverEA(prog *asm.Program, candidatePC, deliveredPC uint64, regs *[isa.NumRegs]int64) (uint64, bool) {
	in := prog.InstrAt(candidatePC)
	if in == nil {
		return 0, false
	}
	base, idx, hasIdx, ok := in.AddrRegs()
	if !ok {
		return 0, false
	}
	for pc := candidatePC; pc < deliveredPC; pc += isa.InstrBytes {
		mid := prog.InstrAt(pc)
		if mid == nil {
			return 0, false
		}
		// The candidate itself may overwrite its own base register
		// (load into the address register, e.g. pointer chasing); in
		// that case the base value at delivery is already the loaded
		// value, not the address.
		if w, writes := mid.Writes(); writes && (w == base || (hasIdx && w == idx)) {
			return 0, false
		}
	}
	ea := uint64(regs[base])
	if hasIdx {
		ea += uint64(regs[idx])
	} else {
		ea += uint64(int64(in.Imm))
	}
	return ea, true
}
