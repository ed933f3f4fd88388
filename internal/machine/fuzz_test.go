package machine

import (
	"fmt"
	"reflect"
	"testing"

	"dsprof/internal/asm"
	"dsprof/internal/hwc"
	"dsprof/internal/isa"
)

// fuzzRegs is the register pool fuzzed programs read and write. %g0 is
// excluded (hardwired zero makes writes no-ops, which is legal but
// wastes coverage); %sp, %fp and %o7 are excluded so the generator does
// not have to reason about the callstack model — Call/Jmpl still
// exercise it through the fixed subroutine below.
var fuzzRegs = []isa.Reg{
	isa.G1, isa.G2, isa.G3, isa.G4,
	isa.O0, isa.O1, isa.O2, isa.O3,
	isa.L0, isa.L1, isa.L2, isa.L3, isa.L4, isa.L5,
	isa.I0, isa.I1,
}

// fuzzEvents are the arming choices; EvNone slots leave the PIC unarmed.
var fuzzEvents = []hwc.Event{
	hwc.EvNone, hwc.EvCycles, hwc.EvInstrs, hwc.EvDCRdMiss,
	hwc.EvECRef, hwc.EvECRdMiss, hwc.EvECStall, hwc.EvDTLBMiss, hwc.EvICMiss,
}

// genFuzzProgram compiles fuzz bytes into a terminating-or-budgeted
// program. Every byte string assembles: opcodes, registers and branch
// targets are all reduced modulo their legal ranges. The layout is a
// preamble that mallocs a scratch region into %l0, a body of one
// instruction per remaining input byte pair (each with its own label so
// branches can target any body slot, forward or backward), and a halt
// epilogue plus a small subroutine so Call/Jmpl have somewhere real to
// go. Runaway loops are cut by the machine's instruction budget, which
// every engine must honor identically.
func genFuzzProgram(data []byte) func(b *asm.Builder) {
	return func(b *asm.Builder) {
		// Preamble: %l0 = malloc(1<<16), %l1 = small counter.
		b.Emit(isa.Instr{Op: isa.SetHi, Rd: isa.O0, UseImm: true, Imm: (1 << 16) >> isa.SetHiShift})
		b.Emit(isa.Instr{Op: isa.Syscall, UseImm: true, Imm: SysMalloc})
		b.Emit(isa.Instr{Op: isa.Or, Rd: isa.L0, Rs1: isa.O0, Rs2: isa.G0})
		b.Emit(isa.Instr{Op: isa.Or, Rd: isa.L1, Rs1: isa.G0, UseImm: true, Imm: 64})

		nbody := len(data) / 2
		reg := func(x byte) isa.Reg { return fuzzRegs[int(x)%len(fuzzRegs)] }
		for i := 0; i < nbody; i++ {
			op, sel := data[2*i], data[2*i+1]
			b.Label(fmt.Sprintf("i%d", i))
			rd, rs := reg(sel), reg(sel>>4|sel<<4)
			switch op % 20 {
			case 0:
				b.Emit(isa.Instr{Op: isa.Add, Rd: rd, Rs1: rd, Rs2: rs})
			case 1:
				b.Emit(isa.Instr{Op: isa.Sub, Rd: rd, Rs1: rs, UseImm: true, Imm: int32(sel)})
			case 2:
				b.Emit(isa.Instr{Op: isa.Mul, Rd: rd, Rs1: rd, Rs2: rs})
			case 3:
				// Div/Rem trap on zero divisors — a legitimate differential
				// case; every engine must surface the same trap state.
				b.Emit(isa.Instr{Op: isa.Div, Rd: rd, Rs1: rs, UseImm: true, Imm: int32(sel%7) + 1})
			case 4:
				b.Emit(isa.Instr{Op: isa.Rem, Rd: rd, Rs1: rd, Rs2: rs})
			case 5:
				b.Emit(isa.Instr{Op: isa.Xor, Rd: rd, Rs1: rd, Rs2: rs})
			case 6:
				b.Emit(isa.Instr{Op: isa.Sll, Rd: rd, Rs1: rs, UseImm: true, Imm: int32(sel % 64)})
			case 7:
				b.Emit(isa.Instr{Op: isa.Sra, Rd: rd, Rs1: rs, UseImm: true, Imm: int32(sel % 64)})
			case 8:
				b.Emit(isa.Instr{Op: isa.SetHi, Rd: rd, UseImm: true, Imm: int32(sel)})
			case 9, 10:
				// Loads from the scratch region. Offsets are mostly aligned;
				// every 16th selector deliberately misaligns to exercise the
				// alignment-trap path on every engine.
				off := int32(sel) * 8
				if sel%16 == 0 {
					off++
				}
				lop := []isa.Op{isa.LdX, isa.LdW, isa.LdUB}[sel%3]
				b.Emit(isa.Instr{Op: lop, Rd: rd, Rs1: isa.L0, UseImm: true, Imm: off})
			case 11, 12:
				off := int32(sel) * 8
				sop := []isa.Op{isa.StX, isa.StW, isa.StB}[sel%3]
				b.Emit(isa.Instr{Op: sop, Rd: rs, Rs1: isa.L0, UseImm: true, Imm: off})
			case 13:
				b.Emit(isa.Instr{Op: isa.Prefetch, Rs1: isa.L0, UseImm: true, Imm: int32(sel) * 32})
			case 14:
				b.Emit(isa.Instr{Op: isa.Cmp, Rs1: rd, Rs2: rs})
			case 15:
				b.Emit(isa.Instr{Op: isa.Cmp, Rs1: rd, UseImm: true, Imm: int32(sel)})
			case 16:
				// Conditional branch to an arbitrary body slot (forward or
				// backward). The instruction budget bounds runaway loops.
				bops := []isa.Op{isa.Be, isa.Bne, isa.Bl, isa.Bge, isa.Bgu, isa.Bleu}
				b.EmitBranch(bops[int(op/20)%len(bops)], fmt.Sprintf("i%d", int(sel)%nbody))
				b.Emit(isa.Instr{Op: isa.Add, Rd: rd, Rs1: rd, UseImm: true, Imm: 1}) // delay slot
			case 17:
				b.EmitCall("sub")
				b.Emit(isa.Instr{Op: isa.Nop}) // delay slot
			case 18:
				b.Emit(isa.Instr{Op: isa.Syscall, UseImm: true, Imm: SysCycles})
			default:
				b.Emit(isa.Instr{Op: isa.Nop})
			}
		}
		b.Emit(isa.Instr{Op: isa.Syscall, UseImm: true, Imm: SysWriteLong})
		b.Emit(isa.Instr{Op: isa.Halt})

		// Subroutine: touch the scratch region, then return.
		b.Label("sub")
		b.Emit(isa.Instr{Op: isa.LdX, Rd: isa.G4, Rs1: isa.L0, UseImm: true, Imm: 128})
		b.Emit(isa.Instr{Op: isa.Jmpl, Rd: isa.G0, Rs1: isa.O7, UseImm: true, Imm: 8})
		b.Emit(isa.Instr{Op: isa.StX, Rd: isa.G4, Rs1: isa.L0, UseImm: true, Imm: 136}) // delay slot
	}
}

// genFuzzArm derives an arming configuration from the first bytes of the
// input: zero to two counters with small intervals, and sometimes the
// profiling clock, so the fuzzer crosses event-horizon recomputation,
// overflow delivery, and translated side exits and prefix fits.
func genFuzzArm(t *testing.T, data []byte) func(m *Machine) {
	pick := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	ev0 := fuzzEvents[int(pick(0))%len(fuzzEvents)]
	ev1 := fuzzEvents[int(pick(1))%len(fuzzEvents)]
	iv0 := uint64(pick(2))%500 + 3
	iv1 := uint64(pick(3))%500 + 3
	clock := pick(0)%3 == 0
	return func(m *Machine) {
		if ev0 != hwc.EvNone {
			mustArm(t, m, 0, ev0, iv0)
		}
		if ev1 != hwc.EvNone && ev1 != ev0 {
			mustArm(t, m, 1, ev1, iv1)
		}
		if clock {
			m.ClockTickCycles = 2048
		}
	}
}

// FuzzBackendDifferential feeds random small programs under randomized
// arming to the reference stepper and to the engine, driven by Run and
// by RunFor in 7-instruction slices (which exits translated blocks
// mid-way). It requires every observable output — final registers, PC,
// statistics, counter totals, delivered overflow events with their skid
// draws, clock ticks, and trap errors — to be identical across all three.
func FuzzBackendDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 16, 3, 9, 12, 11, 200, 3, 0, 16, 250})
	f.Add([]byte{40, 7, 36, 129, 9, 16, 14, 66, 16, 1, 17, 5, 18, 0})
	f.Add([]byte{203, 31, 16, 0, 14, 99, 16, 90, 11, 48, 9, 16, 3, 3})
	// Armed-memory corpus: the first four bytes select memory-event PICs
	// (D$/E$/TLB/I$ read misses and stalls) at the smallest intervals,
	// over bodies dense with loads, stores, and calls.
	f.Add([]byte{3, 5, 0, 0, 14, 0, 15, 8, 14, 16, 17, 0, 14, 32, 15, 40, 16, 1})
	f.Add([]byte{8, 7, 0, 1, 16, 3, 14, 0, 9, 12, 17, 0, 14, 8, 3, 200, 16, 90})
	f.Add([]byte{4, 6, 1, 0, 14, 0, 14, 64, 15, 128, 14, 8, 16, 250, 11, 48, 15, 0})
	f.Add([]byte{6, 3, 0, 2, 15, 0, 15, 8, 15, 16, 14, 24, 17, 0, 16, 5, 14, 0})
	// Fixed-point corpus: Q16.16-style Mul/Div/Sll/Sra chains, the op mix
	// the cc float lowering emits, under E$-stall + D$-miss arming.
	f.Add([]byte{6, 3, 2, 17, 6, 16, 7, 48, 3, 9, 2, 130, 6, 240, 7, 32, 16, 2})
	f.Add([]byte{8, 7, 8, 200, 2, 40, 7, 16, 6, 16, 3, 50, 11, 8, 9, 8, 2, 3, 7, 63, 16, 250})
	// Mixed-width same-offset stores and loads (the union aliasing shape):
	// StW@128/LdW@129 and StX@0/LdX@1 also cross the misalignment path.
	f.Add([]byte{3, 5, 11, 16, 9, 16, 12, 32, 10, 32, 11, 48, 9, 48, 12, 0, 10, 0, 16, 4})
	// Dense E$-stall corpus: the advisor loop's E$ stall at 211 (little
	// more than one E$ miss's 180-cycle stall) and E$ read misses at 31,
	// clock on.
	f.Add([]byte{6, 5, 208, 28, 9, 17, 11, 200, 9, 33, 17, 0, 10, 129, 12, 72, 14, 3, 16, 4})
	// Dense corpus, one seed per counter-class pair at the smallest
	// intervals: icm 3 + ecstall 7; dcrm 3 + ecref 5 with the clock;
	// ecrm 3 + dtlbm 3.
	f.Add([]byte{8, 6, 0, 4, 9, 17, 17, 0, 11, 48, 14, 3, 16, 2, 10, 129, 17, 0, 12, 72, 16, 0})
	f.Add([]byte{3, 4, 0, 2, 9, 17, 11, 200, 9, 33, 17, 0, 10, 129, 12, 72, 14, 3, 16, 4})
	f.Add([]byte{5, 7, 0, 0, 9, 40, 11, 41, 9, 200, 13, 7, 17, 0, 15, 8, 16, 1})
	// Delay-slot corpus: icm 3 + ecref 3 over calls (the subroutine returns
	// with a store in its delay slot) and branches, so overflows land
	// between a CTI and its target.
	f.Add([]byte{8, 4, 0, 0, 17, 0, 16, 3, 17, 0, 16, 5, 17, 0, 12, 8, 16, 1})
	// Fused-compare corpus: a loop of add, compare, nop, branch. The
	// compare reaches its branch across the nop as one fused op, and
	// 7-instruction slices end between the two.
	f.Add([]byte{0, 0, 14, 0, 19, 0, 16, 0})
	// Trap corpus: icm 3 over straight-line nops ending in a misaligned
	// load that opens the sixth I$ line. Its own fetch miss is the
	// counter's second overflow, whose skid draw is 1 under the default
	// skid seed: Step traps with that overflow pending, undelivered.
	trap := []byte{8, 0, 0, 0}
	for len(trap) < 72 {
		trap = append(trap, 19, 0) // nop
	}
	f.Add(append(trap, 9, 16))
	seed := make([]byte, 120)
	for i := range seed {
		seed[i] = byte(i*37 + 11)
	}
	f.Add(seed)
	// Stall-horizon corpus: the clock next to cycles at 89, so one stall
	// can reach a horizon in the middle of a block. A straight run of 40
	// adds crosses five I$ lines, then first-touch loads and stores miss
	// the D$ and E$.
	stall := []byte{0, 1, 0, 86}
	for i := byte(1); i <= 40; i++ {
		stall = append(stall, 0, i) // add
	}
	f.Add(append(stall, 9, 17, 0, 1, 11, 200, 0, 2, 10, 33, 0, 3, 12, 72, 0, 4, 9, 129, 0, 5, 11, 48, 0, 6))
	// Cycles at 31 next to the clock, over a prefetch whose DTLB miss is
	// its only stall: a prefetch runs no load or store miss path.
	f.Add([]byte{0, 1, 13, 28, 0, 0, 0, 1, 0, 2, 0, 3, 16, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			t.Skip("program cap")
		}
		prog := genFuzzProgram(data)
		arm := genFuzzArm(t, data)
		cfg := DefaultConfig()
		cfg.MaxInstrs = 30000 // cut runaway branch loops, identically everywhere
		ref := driveMachine(t, cfg, prog, arm, stepLoop)
		run := driveMachine(t, cfg, prog, arm, (*Machine).Run)
		sliced := driveMachine(t, cfg, prog, arm, runForLoop)
		if !reflect.DeepEqual(ref, run) {
			diffLogs(t, "Run", ref, run)
		}
		if !reflect.DeepEqual(ref, sliced) {
			diffLogs(t, "RunFor", ref, sliced)
		}
	})
}
