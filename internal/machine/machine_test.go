package machine

import (
	"testing"

	"dsprof/internal/asm"
	"dsprof/internal/hwc"
	"dsprof/internal/isa"
)

// build assembles a program with the builder function and returns a
// machine ready to run it.
func build(t *testing.T, cfg Config, f func(b *asm.Builder)) *Machine {
	t.Helper()
	b := asm.NewBuilder(TextBase)
	f(b)
	text, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadProgram(text, nil, TextBase); err != nil {
		t.Fatal(err)
	}
	return m
}

func run(t *testing.T, m *Machine) {
	t.Helper()
	if err := m.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func movImm(rd isa.Reg, v int32) isa.Instr {
	return isa.Instr{Op: isa.Or, Rd: rd, Rs1: isa.G0, UseImm: true, Imm: v}
}

func TestArithmetic(t *testing.T) {
	m := build(t, DefaultConfig(), func(b *asm.Builder) {
		b.Emit(movImm(isa.O0, 6))
		b.Emit(movImm(isa.O1, 7))
		b.Emit(isa.Instr{Op: isa.Mul, Rd: isa.O2, Rs1: isa.O0, Rs2: isa.O1})
		b.Emit(isa.Instr{Op: isa.Add, Rd: isa.O2, Rs1: isa.O2, UseImm: true, Imm: 8})
		b.Emit(isa.Instr{Op: isa.Sub, Rd: isa.O3, Rs1: isa.O2, UseImm: true, Imm: 50})
		b.Emit(isa.Instr{Op: isa.Halt})
	})
	run(t, m)
	if m.Regs[isa.O2] != 50 || m.Regs[isa.O3] != 0 {
		t.Errorf("o2=%d o3=%d", m.Regs[isa.O2], m.Regs[isa.O3])
	}
	if m.Stats().Instrs != 6 {
		t.Errorf("instrs=%d", m.Stats().Instrs)
	}
}

func TestG0Hardwired(t *testing.T) {
	m := build(t, DefaultConfig(), func(b *asm.Builder) {
		b.Emit(movImm(isa.G0, 99))
		b.Emit(isa.Instr{Op: isa.Add, Rd: isa.O0, Rs1: isa.G0, UseImm: true, Imm: 5})
		b.Emit(isa.Instr{Op: isa.Halt})
	})
	run(t, m)
	if m.Regs[isa.G0] != 0 || m.Regs[isa.O0] != 5 {
		t.Errorf("g0=%d o0=%d", m.Regs[isa.G0], m.Regs[isa.O0])
	}
}

func TestSetHiOrIdiom(t *testing.T) {
	const want = 0x1234_5678
	m := build(t, DefaultConfig(), func(b *asm.Builder) {
		b.Emit(isa.Instr{Op: isa.SetHi, Rd: isa.O0, UseImm: true, Imm: want >> isa.SetHiShift})
		b.Emit(isa.Instr{Op: isa.Or, Rd: isa.O0, Rs1: isa.O0, UseImm: true, Imm: want & (1<<isa.SetHiShift - 1)})
		b.Emit(isa.Instr{Op: isa.Halt})
	})
	run(t, m)
	if m.Regs[isa.O0] != want {
		t.Errorf("sethi/or = %#x, want %#x", m.Regs[isa.O0], want)
	}
}

func TestLoopWithDelaySlot(t *testing.T) {
	// sum = 0; for i = 10; i > 0; i-- { sum += i }  => 55
	m := build(t, DefaultConfig(), func(b *asm.Builder) {
		b.Emit(movImm(isa.O0, 0))  // sum
		b.Emit(movImm(isa.O1, 10)) // i
		if err := b.Label("loop"); err != nil {
			t.Fatal(err)
		}
		b.Emit(isa.Instr{Op: isa.Add, Rd: isa.O0, Rs1: isa.O0, Rs2: isa.O1})
		b.Emit(isa.Instr{Op: isa.Sub, Rd: isa.O1, Rs1: isa.O1, UseImm: true, Imm: 1})
		b.Emit(isa.Instr{Op: isa.Cmp, Rs1: isa.O1, UseImm: true, Imm: 0})
		b.EmitBranch(isa.Bg, "loop")
		b.Emit(isa.Instr{Op: isa.Nop}) // delay slot
		b.Emit(isa.Instr{Op: isa.Halt})
	})
	run(t, m)
	if m.Regs[isa.O0] != 55 {
		t.Errorf("sum = %d, want 55", m.Regs[isa.O0])
	}
}

func TestDelaySlotExecutesBeforeBranchTarget(t *testing.T) {
	// The instruction after a taken branch (the delay slot) must execute.
	m := build(t, DefaultConfig(), func(b *asm.Builder) {
		b.EmitBranch(isa.Ba, "target")
		b.Emit(movImm(isa.O0, 42)) // delay slot: executes
		b.Emit(movImm(isa.O0, 1))  // skipped
		b.Label("target")
		b.Emit(isa.Instr{Op: isa.Halt})
	})
	run(t, m)
	if m.Regs[isa.O0] != 42 {
		t.Errorf("delay slot did not execute: o0=%d", m.Regs[isa.O0])
	}
}

func TestConditionalBranches(t *testing.T) {
	cases := []struct {
		op    isa.Op
		a, b  int32
		taken bool
	}{
		{isa.Be, 5, 5, true}, {isa.Be, 5, 6, false},
		{isa.Bne, 5, 6, true}, {isa.Bne, 5, 5, false},
		{isa.Bg, 6, 5, true}, {isa.Bg, 5, 5, false}, {isa.Bg, -1, 0, false},
		{isa.Bge, 5, 5, true}, {isa.Bge, 4, 5, false}, {isa.Bge, -3, -4, true},
		{isa.Bl, -1, 0, true}, {isa.Bl, 0, 0, false},
		{isa.Ble, 0, 0, true}, {isa.Ble, 1, 0, false},
		{isa.Bgu, 0, -1, false}, // unsigned: 0 < 0xffff... so not greater
		{isa.Bgeu, -1, 1, true}, // unsigned: big >= 1
		{isa.Blu, 1, -1, true},
		{isa.Bleu, 0, 0, true}, {isa.Bleu, 2, 1, false},
		{isa.Ba, 0, 0, true},
	}
	for _, c := range cases {
		m := build(t, DefaultConfig(), func(b *asm.Builder) {
			b.Emit(movImm(isa.O1, c.a))
			b.Emit(movImm(isa.O2, c.b))
			b.Emit(isa.Instr{Op: isa.Cmp, Rs1: isa.O1, Rs2: isa.O2})
			b.EmitBranch(c.op, "taken")
			b.Emit(isa.Instr{Op: isa.Nop})
			b.Emit(movImm(isa.O0, 0))
			b.Emit(isa.Instr{Op: isa.Halt})
			b.Label("taken")
			b.Emit(movImm(isa.O0, 1))
			b.Emit(isa.Instr{Op: isa.Halt})
		})
		run(t, m)
		got := m.Regs[isa.O0] == 1
		if got != c.taken {
			t.Errorf("%v with a=%d b=%d: taken=%v, want %v", c.op, c.a, c.b, got, c.taken)
		}
	}
}

func TestCallReturnAndCallstack(t *testing.T) {
	var depthAtEvent int
	m := build(t, DefaultConfig(), func(b *asm.Builder) {
		b.EmitCall("fn")
		b.Emit(isa.Instr{Op: isa.Nop}) // delay slot
		b.Emit(isa.Instr{Op: isa.Add, Rd: isa.O0, Rs1: isa.O0, UseImm: true, Imm: 1})
		b.Emit(isa.Instr{Op: isa.Halt})
		b.Label("fn")
		b.Emit(movImm(isa.O0, 10))
		b.Emit(isa.Instr{Op: isa.Jmpl, Rd: isa.G0, Rs1: isa.O7, UseImm: true, Imm: 8}) // retl
		b.Emit(isa.Instr{Op: isa.Nop})                                                 // delay slot
	})
	// Snapshot call depth while inside fn.
	m.ClockTickCycles = 1
	m.OnClockTick = func(ct *ClockTick) {
		if ct.PC >= TextBase+4*isa.InstrBytes && len(ct.Callstack) > depthAtEvent {
			depthAtEvent = len(ct.Callstack)
		}
	}
	run(t, m)
	if m.Regs[isa.O0] != 11 {
		t.Errorf("o0 = %d, want 11 (call returned to wrong place?)", m.Regs[isa.O0])
	}
	if depthAtEvent != 1 {
		t.Errorf("callstack depth inside fn = %d, want 1", depthAtEvent)
	}
	if len(m.Callstack()) != 0 {
		t.Errorf("callstack not empty after return: %v", m.Callstack())
	}
}

func TestHeapLoadStore(t *testing.T) {
	m := build(t, DefaultConfig(), func(b *asm.Builder) {
		b.Emit(movImm(isa.O0, 64))
		b.Emit(isa.Instr{Op: isa.Syscall, UseImm: true, Imm: SysMalloc})
		b.Emit(isa.Instr{Op: isa.Or, Rd: isa.L0, Rs1: isa.G0, Rs2: isa.O0}) // save ptr
		b.Emit(movImm(isa.O1, 1234))
		b.Emit(isa.Instr{Op: isa.StX, Rd: isa.O1, Rs1: isa.L0, UseImm: true, Imm: 8})
		b.Emit(isa.Instr{Op: isa.LdX, Rd: isa.O2, Rs1: isa.L0, UseImm: true, Imm: 8})
		b.Emit(isa.Instr{Op: isa.StW, Rd: isa.O1, Rs1: isa.L0, UseImm: true, Imm: 16})
		b.Emit(isa.Instr{Op: isa.LdW, Rd: isa.O3, Rs1: isa.L0, UseImm: true, Imm: 16})
		b.Emit(isa.Instr{Op: isa.StB, Rd: isa.O1, Rs1: isa.L0, UseImm: true, Imm: 20})
		b.Emit(isa.Instr{Op: isa.LdUB, Rd: isa.O4, Rs1: isa.L0, UseImm: true, Imm: 20})
		b.Emit(isa.Instr{Op: isa.Halt})
	})
	run(t, m)
	if m.Regs[isa.O2] != 1234 || m.Regs[isa.O3] != 1234 || m.Regs[isa.O4] != 1234&0xff {
		t.Errorf("o2=%d o3=%d o4=%d", m.Regs[isa.O2], m.Regs[isa.O3], m.Regs[isa.O4])
	}
	if len(m.Allocs()) != 1 || m.Allocs()[0].Size != 64 {
		t.Errorf("allocs = %+v", m.Allocs())
	}
}

func TestSignExtension(t *testing.T) {
	m := build(t, DefaultConfig(), func(b *asm.Builder) {
		b.Emit(movImm(isa.O0, 16))
		b.Emit(isa.Instr{Op: isa.Syscall, UseImm: true, Imm: SysMalloc})
		b.Emit(movImm(isa.O1, -1))
		b.Emit(isa.Instr{Op: isa.StW, Rd: isa.O1, Rs1: isa.O0, UseImm: true, Imm: 0})
		b.Emit(isa.Instr{Op: isa.LdW, Rd: isa.O2, Rs1: isa.O0, UseImm: true, Imm: 0})
		b.Emit(isa.Instr{Op: isa.StB, Rd: isa.O1, Rs1: isa.O0, UseImm: true, Imm: 8})
		b.Emit(isa.Instr{Op: isa.LdB, Rd: isa.O3, Rs1: isa.O0, UseImm: true, Imm: 8})
		b.Emit(isa.Instr{Op: isa.LdUB, Rd: isa.O4, Rs1: isa.O0, UseImm: true, Imm: 8})
		b.Emit(isa.Instr{Op: isa.Halt})
	})
	run(t, m)
	if m.Regs[isa.O2] != -1 || m.Regs[isa.O3] != -1 || m.Regs[isa.O4] != 255 {
		t.Errorf("o2=%d o3=%d o4=%d", m.Regs[isa.O2], m.Regs[isa.O3], m.Regs[isa.O4])
	}
}

func TestStackAccess(t *testing.T) {
	m := build(t, DefaultConfig(), func(b *asm.Builder) {
		b.Emit(isa.Instr{Op: isa.Sub, Rd: isa.SP, Rs1: isa.SP, UseImm: true, Imm: 32})
		b.Emit(movImm(isa.O0, 7))
		b.Emit(isa.Instr{Op: isa.StX, Rd: isa.O0, Rs1: isa.SP, UseImm: true, Imm: 0})
		b.Emit(isa.Instr{Op: isa.LdX, Rd: isa.O1, Rs1: isa.SP, UseImm: true, Imm: 0})
		b.Emit(isa.Instr{Op: isa.Halt})
	})
	run(t, m)
	if m.Regs[isa.O1] != 7 {
		t.Errorf("stack roundtrip = %d", m.Regs[isa.O1])
	}
}

func TestInputOutputSyscalls(t *testing.T) {
	m := build(t, DefaultConfig(), func(b *asm.Builder) {
		b.Emit(isa.Instr{Op: isa.Syscall, UseImm: true, Imm: SysReadLong})
		b.Emit(isa.Instr{Op: isa.Syscall, UseImm: true, Imm: SysWriteLong})
		b.Emit(isa.Instr{Op: isa.Syscall, UseImm: true, Imm: SysInputLeft})
		b.Emit(isa.Instr{Op: isa.Syscall, UseImm: true, Imm: SysWriteLong})
		b.Emit(isa.Instr{Op: isa.Halt})
	})
	m.SetInput([]int64{41, 99})
	run(t, m)
	out := m.OutputLongs()
	if len(out) != 2 || out[0] != 41 || out[1] != 1 {
		t.Errorf("output = %v", out)
	}
}

func TestTraps(t *testing.T) {
	cases := []struct {
		name string
		kind TrapKind
		prog func(b *asm.Builder)
	}{
		{"misaligned", TrapMisaligned, func(b *asm.Builder) {
			b.Emit(movImm(isa.O0, 64))
			b.Emit(isa.Instr{Op: isa.Syscall, UseImm: true, Imm: SysMalloc})
			b.Emit(isa.Instr{Op: isa.LdX, Rd: isa.O1, Rs1: isa.O0, UseImm: true, Imm: 3})
		}},
		{"segv", TrapSegv, func(b *asm.Builder) {
			b.Emit(isa.Instr{Op: isa.LdX, Rd: isa.O1, Rs1: isa.G0, UseImm: true, Imm: 0})
		}},
		{"divzero", TrapDivZero, func(b *asm.Builder) {
			b.Emit(movImm(isa.O0, 10))
			b.Emit(isa.Instr{Op: isa.Div, Rd: isa.O1, Rs1: isa.O0, Rs2: isa.G0})
		}},
		{"input", TrapInputExhausted, func(b *asm.Builder) {
			b.Emit(isa.Instr{Op: isa.Syscall, UseImm: true, Imm: SysReadLong})
		}},
		{"badsys", TrapBadSyscall, func(b *asm.Builder) {
			b.Emit(isa.Instr{Op: isa.Syscall, UseImm: true, Imm: 999})
		}},
		{"badpc", TrapBadPC, func(b *asm.Builder) {
			b.Emit(isa.Instr{Op: isa.Nop}) // falls off the end
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := build(t, DefaultConfig(), c.prog)
			err := m.Run()
			trap, ok := err.(*Trap)
			if !ok || trap.Kind != c.kind {
				t.Errorf("Run = %v, want trap %v", err, c.kind)
			}
		})
	}
}

func TestInstructionBudget(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxInstrs = 100
	m := build(t, cfg, func(b *asm.Builder) {
		b.Label("spin")
		b.EmitBranch(isa.Ba, "spin")
		b.Emit(isa.Instr{Op: isa.Nop})
	})
	err := m.Run()
	trap, ok := err.(*Trap)
	if !ok || trap.Kind != TrapBudget {
		t.Errorf("Run = %v, want budget trap", err)
	}
}

func TestPrefetchNeverFaults(t *testing.T) {
	m := build(t, DefaultConfig(), func(b *asm.Builder) {
		b.Emit(isa.Instr{Op: isa.Prefetch, Rs1: isa.G0, UseImm: true, Imm: 0})
		b.Emit(isa.Instr{Op: isa.Halt})
	})
	run(t, m)
}

func TestCounterOverflowAndSkid(t *testing.T) {
	cfg := DefaultConfig()
	var events []OverflowEvent
	// Strided loads over a fresh heap block: every load of a new 512-byte
	// E$ line is an E$ read miss.
	m := build(t, cfg, func(b *asm.Builder) {
		b.Emit(movImm(isa.O0, 1))
		b.Emit(isa.Instr{Op: isa.Sll, Rd: isa.O0, Rs1: isa.O0, UseImm: true, Imm: 20}) // 1 MB
		b.Emit(isa.Instr{Op: isa.Syscall, UseImm: true, Imm: SysMalloc})
		b.Emit(isa.Instr{Op: isa.Or, Rd: isa.L0, Rs1: isa.G0, Rs2: isa.O0})
		b.Emit(movImm(isa.O1, 1024)) // iterations
		b.Label("loop")
		b.Emit(isa.Instr{Op: isa.LdX, Rd: isa.O2, Rs1: isa.L0, UseImm: true, Imm: 0})
		b.Emit(isa.Instr{Op: isa.Add, Rd: isa.L0, Rs1: isa.L0, UseImm: true, Imm: 1024})
		b.Emit(isa.Instr{Op: isa.Sub, Rd: isa.O1, Rs1: isa.O1, UseImm: true, Imm: 1})
		b.Emit(isa.Instr{Op: isa.Cmp, Rs1: isa.O1, UseImm: true, Imm: 0})
		b.EmitBranch(isa.Bg, "loop")
		b.Emit(isa.Instr{Op: isa.Nop})
		b.Emit(isa.Instr{Op: isa.Halt})
	})
	if err := m.ArmCounter(0, hwc.EvECRdMiss, 100); err != nil {
		t.Fatal(err)
	}
	m.OnOverflow = func(e *OverflowEvent) { events = append(events, *e) } // the record is reused: copy it
	run(t, m)
	if m.Stats().ECRdMisses < 1000 {
		t.Fatalf("ECRdMisses = %d, expected ~1024", m.Stats().ECRdMisses)
	}
	if len(events) < 9 || len(events) > 11 {
		t.Fatalf("got %d overflow events, want ~10", len(events))
	}
	loopLoad := uint64(TextBase + 5*isa.InstrBytes)
	for _, e := range events {
		if e.Event != hwc.EvECRdMiss || e.PIC != 0 {
			t.Errorf("event %+v has wrong identity", e)
		}
		if e.TruePC != loopLoad {
			t.Errorf("TruePC = %#x, want the loop load %#x", e.TruePC, loopLoad)
		}
		if !e.TrueHasEA || e.TrueEA < HeapBase {
			t.Errorf("ground-truth EA missing: %+v", e)
		}
		if e.DeliveredPC == e.TruePC {
			t.Errorf("delivered PC equals trigger PC; skid must be >= 1 instruction")
		}
	}
}

func TestTwoCountersAndArmValidation(t *testing.T) {
	m := build(t, DefaultConfig(), func(b *asm.Builder) {
		b.Emit(isa.Instr{Op: isa.Halt})
	})
	if err := m.ArmCounter(0, hwc.EvECRdMiss, 100); err != nil {
		t.Fatal(err)
	}
	if err := m.ArmCounter(1, hwc.EvECRdMiss, 100); err == nil {
		t.Error("arming same event on both registers should fail")
	}
	if err := m.ArmCounter(1, hwc.EvDTLBMiss, 100); err != nil {
		t.Error(err)
	}
	if err := m.ArmCounter(2, hwc.EvECRef, 100); err == nil {
		t.Error("PIC 2 should not exist (two counter registers)")
	}
	if err := m.ArmCounter(0, hwc.EvECRef, 0); err == nil {
		t.Error("zero interval accepted")
	}
}

func TestDTLBPreciseDelivery(t *testing.T) {
	// DTLB overflow events are precise: delivered PC is exactly trigger+4
	// in a straight-line sequence.
	var events []OverflowEvent
	m := build(t, DefaultConfig(), func(b *asm.Builder) {
		b.Emit(movImm(isa.O0, 1))
		b.Emit(isa.Instr{Op: isa.Sll, Rd: isa.O0, Rs1: isa.O0, UseImm: true, Imm: 24}) // 16 MB
		b.Emit(isa.Instr{Op: isa.Syscall, UseImm: true, Imm: SysMalloc})
		b.Emit(isa.Instr{Op: isa.Or, Rd: isa.L0, Rs1: isa.G0, Rs2: isa.O0})
		b.Emit(movImm(isa.O1, 512))
		b.Label("loop")
		b.Emit(isa.Instr{Op: isa.LdX, Rd: isa.O2, Rs1: isa.L0, UseImm: true, Imm: 0})
		b.Emit(isa.Instr{Op: isa.Add, Rd: isa.L0, Rs1: isa.L0, Rs2: isa.O3})
		b.Emit(isa.Instr{Op: isa.Sub, Rd: isa.O1, Rs1: isa.O1, UseImm: true, Imm: 1})
		b.Emit(isa.Instr{Op: isa.Cmp, Rs1: isa.O1, UseImm: true, Imm: 0})
		b.EmitBranch(isa.Bg, "loop")
		b.Emit(isa.Instr{Op: isa.Nop})
		b.Emit(isa.Instr{Op: isa.Halt})
	})
	// Stride one 8 KB page per iteration: every load DTLB-misses after
	// the TLB reach is exceeded.
	m.Regs[isa.O3] = 32768
	if err := m.ArmCounter(0, hwc.EvDTLBMiss, 50); err != nil {
		t.Fatal(err)
	}
	m.OnOverflow = func(e *OverflowEvent) { events = append(events, *e) } // the record is reused: copy it
	run(t, m)
	if len(events) == 0 {
		t.Fatal("no DTLB overflow events")
	}
	for _, e := range events {
		if e.DeliveredPC != e.TruePC+isa.InstrBytes {
			t.Errorf("DTLB delivery imprecise: delivered %#x, trigger %#x", e.DeliveredPC, e.TruePC)
		}
	}
}

func TestClockTicks(t *testing.T) {
	var ticks int
	m := build(t, DefaultConfig(), func(b *asm.Builder) {
		b.Emit(movImm(isa.O1, 1000))
		b.Label("loop")
		b.Emit(isa.Instr{Op: isa.Sub, Rd: isa.O1, Rs1: isa.O1, UseImm: true, Imm: 1})
		b.Emit(isa.Instr{Op: isa.Cmp, Rs1: isa.O1, UseImm: true, Imm: 0})
		b.EmitBranch(isa.Bg, "loop")
		b.Emit(isa.Instr{Op: isa.Nop})
		b.Emit(isa.Instr{Op: isa.Halt})
	})
	m.ClockTickCycles = 100
	m.OnClockTick = func(ct *ClockTick) { ticks++ }
	run(t, m)
	want := int(m.Stats().Cycles / 100)
	if ticks < want-1 || ticks > want+1 {
		t.Errorf("ticks = %d, want ~%d", ticks, want)
	}
}

func TestSecondsConversion(t *testing.T) {
	m, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Seconds(900_000_000); got != 1.0 {
		t.Errorf("Seconds(900M) = %v", got)
	}
}

func TestCallocZeroesReusedMemory(t *testing.T) {
	m := build(t, DefaultConfig(), func(b *asm.Builder) {
		// p = malloc(64); *p = 77; free(p); q = calloc(8, 8); o5 = *q
		b.Emit(movImm(isa.O0, 64))
		b.Emit(isa.Instr{Op: isa.Syscall, UseImm: true, Imm: SysMalloc})
		b.Emit(isa.Instr{Op: isa.Or, Rd: isa.L0, Rs1: isa.G0, Rs2: isa.O0})
		b.Emit(movImm(isa.O1, 77))
		b.Emit(isa.Instr{Op: isa.StX, Rd: isa.O1, Rs1: isa.L0, UseImm: true, Imm: 0})
		b.Emit(isa.Instr{Op: isa.Or, Rd: isa.O0, Rs1: isa.G0, Rs2: isa.L0})
		b.Emit(isa.Instr{Op: isa.Syscall, UseImm: true, Imm: SysFree})
		b.Emit(movImm(isa.O0, 8))
		b.Emit(movImm(isa.O1, 8))
		b.Emit(isa.Instr{Op: isa.Syscall, UseImm: true, Imm: SysCalloc})
		b.Emit(isa.Instr{Op: isa.LdX, Rd: isa.O5, Rs1: isa.O0, UseImm: true, Imm: 0})
		b.Emit(isa.Instr{Op: isa.Halt})
	})
	run(t, m)
	if m.Regs[isa.O5] != 0 {
		t.Errorf("calloc reused memory not zeroed: %d", m.Regs[isa.O5])
	}
}

func TestStatsAccumulate(t *testing.T) {
	m := build(t, DefaultConfig(), func(b *asm.Builder) {
		b.Emit(movImm(isa.O0, 64))
		b.Emit(isa.Instr{Op: isa.Syscall, UseImm: true, Imm: SysMalloc})
		b.Emit(isa.Instr{Op: isa.StX, Rd: isa.G1, Rs1: isa.O0, UseImm: true, Imm: 0})
		b.Emit(isa.Instr{Op: isa.LdX, Rd: isa.O1, Rs1: isa.O0, UseImm: true, Imm: 0})
		b.Emit(isa.Instr{Op: isa.Halt})
	})
	run(t, m)
	st := m.Stats()
	if st.Loads != 1 || st.Stores != 1 {
		t.Errorf("loads=%d stores=%d", st.Loads, st.Stores)
	}
	if st.Cycles == 0 || st.Instrs != 5 {
		t.Errorf("cycles=%d instrs=%d", st.Cycles, st.Instrs)
	}
	if st.DTLBMisses == 0 {
		t.Error("expected at least one DTLB miss on first heap touch")
	}
}
