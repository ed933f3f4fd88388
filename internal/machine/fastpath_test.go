package machine

import (
	"reflect"
	"testing"

	"dsprof/internal/asm"
	"dsprof/internal/cache"
	"dsprof/internal/hwc"
	"dsprof/internal/isa"
	"dsprof/internal/tlb"
)

// TestClockTickCoalescing is the regression test for the tick-coalescing
// bug: a single long-running instruction (here a large calloc) that spans
// many tick periods must deliver one OnClockTick callback per elapsed
// period, not a single coalesced one.
func TestClockTickCoalescing(t *testing.T) {
	m := build(t, DefaultConfig(), func(b *asm.Builder) {
		b.Emit(movImm(isa.O0, 1<<16)) // elements
		b.Emit(movImm(isa.O1, 1))     // bytes each
		b.Emit(isa.Instr{Op: isa.Syscall, UseImm: true, Imm: SysCalloc})
		b.Emit(isa.Instr{Op: isa.Halt})
	})
	m.ClockTickCycles = 64 // far below the calloc's ~4096-cycle stall
	var ticks uint64
	m.OnClockTick = func(*ClockTick) { ticks++ }
	// Drive with Step so the delivery path under test is the reference
	// stepper itself.
	for !m.Halted() {
		if err := m.Step(); err != nil {
			t.Fatalf("Step: %v", err)
		}
	}
	st := m.Stats()
	if ticks != st.ClockTicks {
		t.Errorf("OnClockTick fired %d times, stats.ClockTicks = %d", ticks, st.ClockTicks)
	}
	if st.ClockTicks < 10 {
		t.Errorf("expected the calloc stall to span many tick periods, got %d ticks", st.ClockTicks)
	}
}

// eventRec snapshots everything observable about one delivered overflow.
type eventRec struct {
	PIC         int
	Event       hwc.Event
	DeliveredPC uint64
	Regs        [isa.NumRegs]int64
	Callstack   []uint64
	Cycles      uint64
	TruePC      uint64
	TrueEA      uint64
	TrueHasEA   bool
}

type tickRec struct {
	PC        uint64
	Callstack []uint64
	Cycles    uint64
}

type runLog struct {
	events []eventRec
	ticks  []tickRec
	stats  Stats
	regs   [isa.NumRegs]int64
	pc     uint64
	totals [2]uint64
	err    string
}

// driveMachine builds, arms, and drives one machine, logging every
// observable output.
func driveMachine(t *testing.T, cfg Config, prog func(b *asm.Builder), arm func(m *Machine), drive func(m *Machine) error) runLog {
	t.Helper()
	m := build(t, cfg, prog)
	if arm != nil {
		arm(m)
	}
	var lg runLog
	m.OnOverflow = func(e *OverflowEvent) {
		lg.events = append(lg.events, eventRec{
			PIC: e.PIC, Event: e.Event, DeliveredPC: e.DeliveredPC,
			Regs: e.Regs, Callstack: append([]uint64(nil), e.Callstack...),
			Cycles: e.Cycles, TruePC: e.TruePC, TrueEA: e.TrueEA, TrueHasEA: e.TrueHasEA,
		})
	}
	m.OnClockTick = func(ct *ClockTick) {
		lg.ticks = append(lg.ticks, tickRec{
			PC: ct.PC, Callstack: append([]uint64(nil), ct.Callstack...), Cycles: ct.Cycles,
		})
	}
	if err := drive(m); err != nil {
		lg.err = err.Error()
	}
	lg.stats = m.Stats()
	lg.regs = m.Regs
	lg.pc = m.PC
	lg.totals = [2]uint64{m.CounterTotal(0), m.CounterTotal(1)}
	return lg
}

func stepLoop(m *Machine) error {
	for !m.Halted() {
		if err := m.Step(); err != nil {
			return err
		}
	}
	return nil
}

func runForLoop(m *Machine) error {
	for !m.Halted() {
		if err := m.RunFor(7); err != nil {
			return err
		}
	}
	return nil
}

// equivProg is a workload that exercises every observable path: memory
// traffic over a range bigger than the D$ (misses, TLB misses, E$
// events), calls and returns (callstack depth changes), branches,
// syscalls of varying cost, and a store loop whose load sits in a return's
// delay slot and whose compare reaches its branch across a nop.
func equivProg(b *asm.Builder) {
	// %o0 = malloc(1<<17)
	b.Emit(isa.Instr{Op: isa.SetHi, Rd: isa.O0, UseImm: true, Imm: (1 << 17) >> isa.SetHiShift})
	b.Emit(isa.Instr{Op: isa.Syscall, UseImm: true, Imm: SysMalloc})
	b.Emit(isa.Instr{Op: isa.Or, Rd: isa.L0, Rs1: isa.O0, Rs2: isa.G0}) // base
	b.Emit(movImm(isa.L1, 0))                                           // i
	b.Emit(isa.Instr{Op: isa.SetHi, Rd: isa.L2, UseImm: true, Imm: (1 << 17) >> isa.SetHiShift})

	b.Label("loop")
	b.Emit(isa.Instr{Op: isa.Add, Rd: isa.O0, Rs1: isa.L0, Rs2: isa.L1})
	b.EmitCall("touch")
	b.Emit(isa.Instr{Op: isa.Nop}) // delay slot
	b.Emit(isa.Instr{Op: isa.Add, Rd: isa.L1, Rs1: isa.L1, UseImm: true, Imm: 72})
	b.Emit(isa.Instr{Op: isa.Cmp, Rs1: isa.L1, Rs2: isa.L2})
	b.Emit(isa.Instr{Op: isa.Nop}) // fuses across: cmp, nop, bl is one op
	b.EmitBranch(isa.Bl, "loop")
	b.Emit(isa.Instr{Op: isa.Nop}) // delay slot
	b.Emit(isa.Instr{Op: isa.Syscall, UseImm: true, Imm: SysCycles})
	b.Emit(isa.Instr{Op: isa.Syscall, UseImm: true, Imm: SysWriteLong})
	b.Emit(isa.Instr{Op: isa.Halt})

	// touch(%o0): store then load back, word-sized. The store does not
	// allocate in the D$, so every load is a D$ read miss.
	b.Label("touch")
	b.Emit(isa.Instr{Op: isa.StW, Rd: isa.O1, Rs1: isa.O0, UseImm: true, Imm: 0})
	b.Emit(isa.Instr{Op: isa.Jmpl, Rd: isa.G0, Rs1: isa.O7, UseImm: true, Imm: 8}) // retl
	b.Emit(isa.Instr{Op: isa.LdW, Rd: isa.O2, Rs1: isa.O0, UseImm: true, Imm: 0})  // delay slot
}

// pageStrideProg loads one word from each of 16 pages, 200 times over.
// The pages are a page and a D$ line apart, so on a machine whose DTLB
// holds fewer than 16 pages every load misses the DTLB while its line
// stays resident in the D$: the DTLB miss is the access's only stall, and
// no cache miss path follows it.
func pageStrideProg(b *asm.Builder) {
	const stride = 8192 + 32
	b.Emit(movImm(isa.O0, 16*stride))
	b.Emit(isa.Instr{Op: isa.Syscall, UseImm: true, Imm: SysMalloc})
	b.Emit(isa.Instr{Op: isa.Or, Rd: isa.L0, Rs1: isa.O0, Rs2: isa.G0}) // base
	b.Emit(movImm(isa.L2, 16*stride))                                   // end offset
	b.Emit(movImm(isa.L3, 200))                                         // passes
	b.Label("pass")
	b.Emit(movImm(isa.L1, 0))
	b.Label("page")
	b.Emit(isa.Instr{Op: isa.LdX, Rd: isa.O2, Rs1: isa.L0, Rs2: isa.L1})
	b.Emit(isa.Instr{Op: isa.Add, Rd: isa.L1, Rs1: isa.L1, UseImm: true, Imm: stride})
	b.Emit(isa.Instr{Op: isa.Cmp, Rs1: isa.L1, Rs2: isa.L2})
	b.EmitBranch(isa.Bl, "page")
	b.Emit(isa.Instr{Op: isa.Nop}) // delay slot
	b.Emit(isa.Instr{Op: isa.Sub, Rd: isa.L3, Rs1: isa.L3, UseImm: true, Imm: 1})
	b.Emit(isa.Instr{Op: isa.Cmp, Rs1: isa.L3, UseImm: true, Imm: 0})
	b.EmitBranch(isa.Bg, "pass")
	b.Emit(isa.Instr{Op: isa.Nop}) // delay slot
	b.Emit(isa.Instr{Op: isa.Halt})
}

// stallConfig is ScaledConfig with a 64-byte direct-mapped I$ and a
// 2-entry DTLB, so fetch, TLB and cache stalls all come often.
func stallConfig() Config {
	cfg := ScaledConfig()
	cfg.ICache = cache.Config{Name: "I$", SizeBytes: 64, LineBytes: 32, Assoc: 1}
	cfg.TLB = tlb.Config{Entries: 2, Assoc: 2}
	return cfg
}

// armStallHorizons puts a clock tick every 97 cycles and a cycle-counter
// overflow every 89: below one DTLB miss or E$ miss, so single stalls
// reach a horizon in the middle of a block.
func armStallHorizons(t *testing.T) func(m *Machine) {
	return func(m *Machine) {
		m.ClockTickCycles = 97
		mustArm(t, m, 0, hwc.EvCycles, 89)
	}
}

// equivDelayLoadPC is the PC of equivProg's delay-slot load.
func equivDelayLoadPC(t *testing.T) uint64 {
	t.Helper()
	b := asm.NewBuilder(TextBase)
	equivProg(b)
	pc, ok := b.LabelAddr("touch")
	if !ok {
		t.Fatal("equivProg has no touch label")
	}
	return pc + 2*isa.InstrBytes
}

// TestFastPathEquivalence runs the same armed workloads on the engine
// (Run, and RunFor in 7-instruction slices, which exits translated blocks
// mid-way) and on the reference stepper, and requires every observable
// output — delivered events with their skid draws, ticks, stats,
// registers, counter totals — to be identical. The dense arms put an
// overflow every few events of every counter class, so translated blocks
// side-exit constantly. The stall arms put clock ticks and cycle
// overflows less than one DTLB or E$ miss apart: every stall site — the
// I$ miss, the DTLB miss, loadMiss and storeMiss — must side-exit once
// its stall passes the cycle horizon, and one of the arms fails when a
// site does not.
func TestFastPathEquivalence(t *testing.T) {
	type armFn func(m *Machine)
	cases := []struct {
		name string
		cfg  func() Config
		// prog is the workload; nil runs equivProg.
		prog func(b *asm.Builder)
		arm  armFn
		// at, when set, is a PC some overflow of the reference run must
		// trigger on.
		at uint64
	}{
		{name: "unarmed", cfg: DefaultConfig},
		{name: "instrs", cfg: DefaultConfig, arm: func(m *Machine) {
			mustArm(t, m, 0, hwc.EvInstrs, 997)
		}},
		{name: "cycles", cfg: DefaultConfig, arm: func(m *Machine) {
			mustArm(t, m, 0, hwc.EvCycles, 4999)
		}},
		{name: "cycles+instrs", cfg: DefaultConfig, arm: func(m *Machine) {
			mustArm(t, m, 0, hwc.EvCycles, 9001)
			mustArm(t, m, 1, hwc.EvInstrs, 1009)
		}},
		{name: "mem", cfg: DefaultConfig, arm: func(m *Machine) {
			mustArm(t, m, 0, hwc.EvECRef, 211)
			mustArm(t, m, 1, hwc.EvDTLBMiss, 13)
		}},
		{name: "ecstall+dcrm", cfg: DefaultConfig, arm: func(m *Machine) {
			mustArm(t, m, 0, hwc.EvECStall, 503)
			mustArm(t, m, 1, hwc.EvDCRdMiss, 101)
		}},
		{name: "mem-tight", cfg: DefaultConfig, arm: func(m *Machine) {
			mustArm(t, m, 0, hwc.EvDCRdMiss, 3)
			mustArm(t, m, 1, hwc.EvECRdMiss, 5)
		}},
		{name: "icm+dtlb-tight", cfg: DefaultConfig, arm: func(m *Machine) {
			mustArm(t, m, 0, hwc.EvICMiss, 2)
			mustArm(t, m, 1, hwc.EvDTLBMiss, 3)
		}},
		{name: "icm+ecstall-dense", cfg: DefaultConfig, arm: func(m *Machine) {
			mustArm(t, m, 0, hwc.EvICMiss, 2)
			mustArm(t, m, 1, hwc.EvECStall, 7)
		}},
		{name: "dcrm+ecref-dense", cfg: DefaultConfig, arm: func(m *Machine) {
			mustArm(t, m, 0, hwc.EvDCRdMiss, 3)
			mustArm(t, m, 1, hwc.EvECRef, 5)
		}},
		{name: "ecrm+dtlbm-dense", cfg: DefaultConfig, arm: func(m *Machine) {
			mustArm(t, m, 0, hwc.EvECRdMiss, 3)
			mustArm(t, m, 1, hwc.EvDTLBMiss, 2)
		}},
		// Every D$ read miss overflows, and the workload's only load sits
		// in a delay slot: side exits land between a CTI and its target.
		{name: "delay-slot", cfg: DefaultConfig, arm: func(m *Machine) {
			mustArm(t, m, 0, hwc.EvDCRdMiss, 1)
		}, at: equivDelayLoadPC(t)},
		{name: "ecstall-dense", cfg: DefaultConfig, arm: armECStallDense(t)},
		{name: "clock", cfg: DefaultConfig, arm: func(m *Machine) {
			m.ClockTickCycles = 1013
			mustArm(t, m, 0, hwc.EvCycles, 7001)
		}},
		// I$, load and store stalls at the horizons.
		{name: "stall-horizons", cfg: stallConfig, arm: armStallHorizons(t)},
		// DTLB stalls at the horizons, with no cache miss path after them.
		{name: "dtlb-horizons", cfg: stallConfig, prog: pageStrideProg, arm: armStallHorizons(t)},
		{name: "budget", cfg: func() Config {
			cfg := DefaultConfig()
			cfg.MaxInstrs = 5000
			return cfg
		}, arm: func(m *Machine) {
			mustArm(t, m, 0, hwc.EvInstrs, 997)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog := tc.prog
			if prog == nil {
				prog = equivProg
			}
			ref := driveMachine(t, tc.cfg(), prog, tc.arm, stepLoop)
			run := driveMachine(t, tc.cfg(), prog, tc.arm, (*Machine).Run)
			sliced := driveMachine(t, tc.cfg(), prog, tc.arm, runForLoop)
			if ref.stats.Instrs < 10000 && tc.name != "budget" {
				t.Fatalf("workload too small to be meaningful: %d instrs", ref.stats.Instrs)
			}
			if len(ref.events)+len(ref.ticks) == 0 && tc.arm != nil {
				t.Fatalf("workload produced no events")
			}
			if tc.at != 0 && !triggersAt(ref, tc.at) {
				t.Fatalf("no overflow triggered at %#x", tc.at)
			}
			if !reflect.DeepEqual(ref, run) {
				diffLogs(t, "Run", ref, run)
			}
			if !reflect.DeepEqual(ref, sliced) {
				diffLogs(t, "RunFor", ref, sliced)
			}
		})
	}
}

// triggersAt reports whether any delivered overflow was triggered at pc.
func triggersAt(lg runLog, pc uint64) bool {
	for _, e := range lg.events {
		if e.TruePC == pc {
			return true
		}
	}
	return false
}

// armECStallDense arms the advisor loop's dense intervals and clock: E$
// stall cycles every 211, little more than one E$ miss's 180-cycle
// stall, next to E$ read misses every 31.
func armECStallDense(t *testing.T) func(m *Machine) {
	return func(m *Machine) {
		m.ClockTickCycles = 9001
		mustArm(t, m, 0, hwc.EvECStall, 211)
		mustArm(t, m, 1, hwc.EvECRdMiss, 31)
	}
}

// TestDenseIntervalStepShare checks that dense arming keeps execution
// translated: translated blocks count exactly and side-exit on an
// overflow, so only the skid instructions after each overflow, tick
// deliveries, and instructions too close to a horizon may run on Step.
func TestDenseIntervalStepShare(t *testing.T) {
	m := build(t, DefaultConfig(), equivProg)
	armECStallDense(t)(m)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	instrs := m.Stats().Instrs
	share := float64(m.stepFallbacks) / float64(instrs)
	t.Logf("%d of %d instructions stepped (%.1f%%)", m.stepFallbacks, instrs, 100*share)
	if share >= 0.10 {
		t.Errorf("stepped share %.1f%%, want < 10%%", 100*share)
	}
}

func mustArm(t *testing.T, m *Machine, pic int, ev hwc.Event, interval uint64) {
	t.Helper()
	if err := m.ArmCounter(pic, ev, interval); err != nil {
		t.Fatal(err)
	}
}

func diffLogs(t *testing.T, path string, ref, got runLog) {
	t.Helper()
	t.Errorf("%s diverges from Step reference", path)
	if ref.stats != got.stats {
		t.Errorf("  stats: ref %+v, got %+v", ref.stats, got.stats)
	}
	if ref.totals != got.totals {
		t.Errorf("  counter totals: ref %v, got %v", ref.totals, got.totals)
	}
	if ref.err != got.err {
		t.Errorf("  err: ref %q, got %q", ref.err, got.err)
	}
	if len(ref.events) != len(got.events) {
		t.Errorf("  events: ref %d, got %d", len(ref.events), len(got.events))
	} else {
		for i := range ref.events {
			if !reflect.DeepEqual(ref.events[i], got.events[i]) {
				t.Errorf("  event %d: ref %+v, got %+v", i, ref.events[i], got.events[i])
				break
			}
		}
	}
	if len(ref.ticks) != len(got.ticks) {
		t.Errorf("  ticks: ref %d, got %d", len(ref.ticks), len(got.ticks))
	} else {
		for i := range ref.ticks {
			if !reflect.DeepEqual(ref.ticks[i], got.ticks[i]) {
				t.Errorf("  tick %d: ref %+v, got %+v", i, ref.ticks[i], got.ticks[i])
				break
			}
		}
	}
}

// TestFastPathTrapEquivalence checks that traps raised mid-run surface
// identically on Step and the engine, with identical partial state.
func TestFastPathTrapEquivalence(t *testing.T) {
	check := func(t *testing.T, cfg Config, prog func(b *asm.Builder), arm func(m *Machine)) {
		t.Helper()
		ref := driveMachine(t, cfg, prog, arm, stepLoop)
		run := driveMachine(t, cfg, prog, arm, (*Machine).Run)
		sliced := driveMachine(t, cfg, prog, arm, runForLoop)
		if ref.err == "" {
			t.Fatal("expected a trap")
		}
		if !reflect.DeepEqual(ref, run) {
			diffLogs(t, "Run", ref, run)
		}
		if !reflect.DeepEqual(ref, sliced) {
			diffLogs(t, "RunFor", ref, sliced)
		}
	}
	t.Run("divzero", func(t *testing.T) {
		divProg := func(b *asm.Builder) {
			b.Emit(movImm(isa.O0, 100))
			b.Emit(movImm(isa.O1, 5))
			b.Label("loop")
			b.Emit(isa.Instr{Op: isa.Sub, Rd: isa.O1, Rs1: isa.O1, UseImm: true, Imm: 1})
			b.Emit(isa.Instr{Op: isa.Div, Rd: isa.O2, Rs1: isa.O0, Rs2: isa.O1}) // traps when o1 hits 0
			b.EmitBranch(isa.Ba, "loop")
			b.Emit(isa.Instr{Op: isa.Nop})
			b.Emit(isa.Instr{Op: isa.Halt})
		}
		check(t, DefaultConfig(), divProg, func(m *Machine) { mustArm(t, m, 0, hwc.EvInstrs, 3) })
	})
	// The trapping load opens a new I$ line, and its own fetch miss is the
	// one that overflows the icm counter, with a skid of one instruction.
	// Step probes, counts, then traps: the overflow is never delivered. A
	// translated block must bail before probing, or the re-executing Step
	// would age and deliver that overflow at the trapping PC.
	t.Run("icm-on-trap", func(t *testing.T) {
		const lineInstrs = 8 // DefaultConfig's 32-byte I$ lines
		trapProg := func(b *asm.Builder) {
			b.Emit(movImm(isa.L0, 1)) // misaligned word address
			for b.Len() < 2*lineInstrs {
				b.Emit(isa.Instr{Op: isa.Nop})
			}
			b.Emit(isa.Instr{Op: isa.LdW, Rd: isa.O0, Rs1: isa.L0, UseImm: true, Imm: 0})
			b.Emit(isa.Instr{Op: isa.Halt})
		}
		cfg := DefaultConfig()
		for hwc.NewSkid(cfg.SkidSeed).Instrs(hwc.EvICMiss) != 1 {
			cfg.SkidSeed++
		}
		arm := func(m *Machine) { mustArm(t, m, 0, hwc.EvICMiss, 3) } // the third line's miss
		ref := build(t, cfg, trapProg)
		arm(ref)
		if err := stepLoop(ref); err == nil || len(ref.pending) != 1 || ref.pending[0].remaining != 1 {
			t.Fatalf("premise: Step run ended with %v, pending %+v; want a trap with one overflow at skid 1", err, ref.pending)
		}
		eng := build(t, cfg, trapProg)
		arm(eng)
		if err := eng.Run(); err == nil || eng.stepFallbacks != 1 {
			t.Fatalf("premise: engine run ended with %v after %d stepped; want the trapping load alone stepped", err, eng.stepFallbacks)
		}
		check(t, cfg, trapProg, arm)
	})
}
