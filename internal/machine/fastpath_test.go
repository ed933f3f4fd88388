package machine

import (
	"math"
	"reflect"
	"testing"

	"dsprof/internal/asm"
	"dsprof/internal/hwc"
	"dsprof/internal/isa"
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

// Translation heats of the batched engine's two differential arms:
// interpOnly keeps every block entry cold, so Run and RunFor execute on
// runInner alone; transAll translates a block on its first dispatcher
// visit, so short test workloads reach translated code rather than
// staying on the interpreter warm-up path.
const (
	interpOnly uint32 = math.MaxUint32
	transAll   uint32 = 1
)

// withHeat wraps an arming function so the same driveMachine workload
// runs at an explicit translation heat.
func withHeat(heat uint32, arm func(m *Machine)) func(m *Machine) {
	return func(m *Machine) {
		m.SetTranslationHeat(heat)
		if arm != nil {
			arm(m)
		}
	}
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
// syscalls of varying cost, and a store loop.
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
	b.EmitBranch(isa.Bl, "loop")
	b.Emit(isa.Instr{Op: isa.Nop}) // delay slot
	b.Emit(isa.Instr{Op: isa.Syscall, UseImm: true, Imm: SysCycles})
	b.Emit(isa.Instr{Op: isa.Syscall, UseImm: true, Imm: SysWriteLong})
	b.Emit(isa.Instr{Op: isa.Halt})

	// touch(%o0): store then load back, word-sized.
	b.Label("touch")
	b.Emit(isa.Instr{Op: isa.StW, Rd: isa.O1, Rs1: isa.O0, UseImm: true, Imm: 0})
	b.Emit(isa.Instr{Op: isa.LdW, Rd: isa.O2, Rs1: isa.O0, UseImm: true, Imm: 0})
	b.Emit(isa.Instr{Op: isa.Jmpl, Rd: isa.G0, Rs1: isa.O7, UseImm: true, Imm: 8}) // retl
	b.Emit(isa.Instr{Op: isa.Nop})                                                 // delay slot
}

// TestFastPathEquivalence runs the same armed workloads on the batched
// engine (Run, and RunFor in slices), interpreter-only and translating,
// and on the reference stepper, and requires
// every observable output — delivered events with their skid draws,
// ticks, stats, registers, counter totals — to be identical.
func TestFastPathEquivalence(t *testing.T) {
	type armFn func(m *Machine)
	cases := []struct {
		name string
		cfg  func() Config
		arm  armFn
	}{
		{"unarmed", DefaultConfig, nil},
		{"instrs", DefaultConfig, func(m *Machine) {
			mustArm(t, m, 0, hwc.EvInstrs, 997)
		}},
		{"cycles", DefaultConfig, func(m *Machine) {
			mustArm(t, m, 0, hwc.EvCycles, 4999)
		}},
		{"cycles+instrs", DefaultConfig, func(m *Machine) {
			mustArm(t, m, 0, hwc.EvCycles, 9001)
			mustArm(t, m, 1, hwc.EvInstrs, 1009)
		}},
		{"mem", DefaultConfig, func(m *Machine) {
			mustArm(t, m, 0, hwc.EvECRef, 211)
			mustArm(t, m, 1, hwc.EvDTLBMiss, 13)
		}},
		{"ecstall+dcrm", DefaultConfig, func(m *Machine) {
			mustArm(t, m, 0, hwc.EvECStall, 503)
			mustArm(t, m, 1, hwc.EvDCRdMiss, 101)
		}},
		// Tiny intervals keep Remaining() within a block's worst-case
		// event bound, forcing the translated engine's block-entry budget
		// refusals (and the re-armed batches behind them) near-constantly.
		{"mem-tight", DefaultConfig, func(m *Machine) {
			mustArm(t, m, 0, hwc.EvDCRdMiss, 3)
			mustArm(t, m, 1, hwc.EvECRdMiss, 5)
		}},
		{"icm+dtlb-tight", DefaultConfig, func(m *Machine) {
			mustArm(t, m, 0, hwc.EvICMiss, 2)
			mustArm(t, m, 1, hwc.EvDTLBMiss, 3)
		}},
		{"ecstall-dense", DefaultConfig, armECStallDense(t)},
		{"clock", func() Config {
			return DefaultConfig()
		}, func(m *Machine) {
			m.ClockTickCycles = 1013
			mustArm(t, m, 0, hwc.EvCycles, 7001)
		}},
		{"budget", func() Config {
			cfg := DefaultConfig()
			cfg.MaxInstrs = 5000
			return cfg
		}, func(m *Machine) {
			mustArm(t, m, 0, hwc.EvInstrs, 997)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := driveMachine(t, tc.cfg(), equivProg, tc.arm, stepLoop)
			interp := driveMachine(t, tc.cfg(), equivProg, withHeat(interpOnly, tc.arm), (*Machine).Run)
			interpSliced := driveMachine(t, tc.cfg(), equivProg, withHeat(interpOnly, tc.arm), runForLoop)
			trans := driveMachine(t, tc.cfg(), equivProg, withHeat(transAll, tc.arm), (*Machine).Run)
			transSliced := driveMachine(t, tc.cfg(), equivProg, withHeat(transAll, tc.arm), runForLoop)
			if ref.stats.Instrs < 10000 && tc.name != "budget" {
				t.Fatalf("workload too small to be meaningful: %d instrs", ref.stats.Instrs)
			}
			if len(ref.events)+len(ref.ticks) == 0 && tc.arm != nil {
				t.Fatalf("workload produced no events")
			}
			if !reflect.DeepEqual(ref, interp) {
				diffLogs(t, "Run/interp", ref, interp)
			}
			if !reflect.DeepEqual(ref, interpSliced) {
				diffLogs(t, "RunFor/interp", ref, interpSliced)
			}
			if !reflect.DeepEqual(ref, trans) {
				diffLogs(t, "Run/translated", ref, trans)
			}
			if !reflect.DeepEqual(ref, transSliced) {
				diffLogs(t, "RunFor/translated", ref, transSliced)
			}
		})
	}
}

// armECStallDense arms the advisor loop's dense intervals and clock: an
// E$-stall interval below maxInstrCost, so the translated batch never
// gets an armed-event budget, next to E$ read misses every 31.
func armECStallDense(t *testing.T) func(m *Machine) {
	return func(m *Machine) {
		m.ClockTickCycles = 9001
		mustArm(t, m, 0, hwc.EvECStall, 211)
		mustArm(t, m, 1, hwc.EvECRdMiss, 31)
	}
}

// TestDenseIntervalStepShare checks that an exhausted armed-event
// budget routes execution to the event-horizon interpreter, not the
// reference stepper: under dense E$-stall arming only the instructions
// that age pending overflows or deliver ticks may run on Step.
func TestDenseIntervalStepShare(t *testing.T) {
	for name, heat := range map[string]uint32{"translated": transAll, "interp": interpOnly} {
		m := build(t, DefaultConfig(), equivProg)
		withHeat(heat, armECStallDense(t))(m)
		if m.maxInstrCost <= 211 {
			t.Fatalf("maxInstrCost = %d: the E$-stall interval no longer sits below it", m.maxInstrCost)
		}
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		instrs := m.Stats().Instrs
		share := float64(m.stepFallbacks) / float64(instrs)
		t.Logf("%s: %d of %d instructions stepped (%.1f%%)", name, m.stepFallbacks, instrs, 100*share)
		if share >= 0.10 {
			t.Errorf("%s: stepped share %.1f%%, want < 10%%", name, 100*share)
		}
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
// identically on both paths, with identical partial state.
func TestFastPathTrapEquivalence(t *testing.T) {
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
	arm := func(m *Machine) { mustArm(t, m, 0, hwc.EvInstrs, 3) }
	ref := driveMachine(t, DefaultConfig(), divProg, arm, stepLoop)
	interp := driveMachine(t, DefaultConfig(), divProg, withHeat(interpOnly, arm), (*Machine).Run)
	trans := driveMachine(t, DefaultConfig(), divProg, withHeat(transAll, arm), (*Machine).Run)
	if ref.err == "" {
		t.Fatal("expected a div-zero trap")
	}
	if !reflect.DeepEqual(ref, interp) {
		diffLogs(t, "Run/interp", ref, interp)
	}
	if !reflect.DeepEqual(ref, trans) {
		diffLogs(t, "Run/translated", ref, trans)
	}
}
