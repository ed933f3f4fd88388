package isa

// Decoded is the predecoded execution form of one instruction: everything
// the machine's stepper and translator would otherwise recompute on every
// visit — the dispatch class, the operand-selection flag, the
// sign-extended (or pre-shifted) immediate, static branch/call targets,
// and the access width — is resolved once at program-load time. The machine fuses its
// base pipeline cost into Cost when it installs the text segment.
//
// The struct is 16 bytes so a decoded text segment packs four
// instructions per cache line.
type Decoded struct {
	// Imm is the operand immediate, pre-processed per class: sign-extended
	// to 64 bits for ALU/memory forms, the absolute target PC for
	// ClBranch/ClCall, and the already-shifted constant for ClMovImm.
	Imm int64

	Op    Op    // original opcode (branch condition selection, diagnostics)
	Class Class // dispatch class
	Rd    Reg
	Rs1   Reg
	Rs2   Reg
	Flags uint8
	// Cost is the fused base pipeline cost in cycles. Decode leaves it
	// zero; the machine fills it from its cost model at load time.
	Cost uint8
	// MemSize is the access width in bytes for memory classes (0
	// otherwise). Alignment checks use MemSize-1 as a mask.
	MemSize uint8
}

// Decoded.Flags bits.
const (
	// DFlagImm selects Imm (not Rs2) as the second operand.
	DFlagImm uint8 = 1 << iota
	// DFlagRet marks the return idiom jmpl %o7+N, %g0 — the form that
	// pops the shadow call stack.
	DFlagRet
)

// Class is the dispatch class of a decoded instruction. Loads, stores,
// and ALU sub-operations each get their own class so the machine
// dispatches with a single jump instead of a class switch plus an opcode
// switch.
type Class uint8

// Dispatch classes. The load and store groups are contiguous so the
// class predicates below stay range checks, mirroring Op.IsLoad et al.
const (
	ClNop Class = iota
	ClLdB
	ClLdUB
	ClLdW
	ClLdX
	ClStB
	ClStW
	ClStX
	ClPrefetch
	ClAdd
	ClSub
	ClMul
	ClDiv
	ClRem
	ClAnd
	ClOr
	ClXor
	ClSll
	ClSrl
	ClSra
	ClMovImm // SetHi with immediate: Imm holds the pre-shifted constant
	ClSetHi  // SetHi with a register operand (never emitted, but legal)
	ClCmp
	ClBranch
	ClCall
	ClJmpl
	ClSyscall
	ClHalt
)

// IsLoad reports whether the class reads memory into a register.
func (c Class) IsLoad() bool { return c >= ClLdB && c <= ClLdX }

// IsStore reports whether the class writes memory.
func (c Class) IsStore() bool { return c >= ClStB && c <= ClStX }

// IsMem reports whether the class references data memory.
func (c Class) IsMem() bool { return c >= ClLdB && c <= ClPrefetch }

// IsCTI reports whether the class is a control-transfer instruction —
// one whose successor takes effect after the architectural delay slot.
func (c Class) IsCTI() bool { return c == ClBranch || c == ClCall || c == ClJmpl }

// EndsBlock reports whether a straight-line translation unit cannot
// extend past this instruction's class: control transfers close a block
// (after their delay slot), and syscalls/halts never enter one.
func (d *Decoded) EndsBlock() bool {
	return d.Class.IsCTI() || d.Class == ClSyscall || d.Class == ClHalt
}

var opClass = [NumOps]Class{
	Nop: ClNop,
	LdB: ClLdB, LdUB: ClLdUB, LdW: ClLdW, LdX: ClLdX,
	StB: ClStB, StW: ClStW, StX: ClStX,
	Prefetch: ClPrefetch,
	Add:      ClAdd, Sub: ClSub, Mul: ClMul, Div: ClDiv, Rem: ClRem,
	And: ClAnd, Or: ClOr, Xor: ClXor,
	Sll: ClSll, Srl: ClSrl, Sra: ClSra,
	SetHi: ClSetHi, Cmp: ClCmp,
	Ba: ClBranch, Be: ClBranch, Bne: ClBranch, Bg: ClBranch, Bge: ClBranch,
	Bl: ClBranch, Ble: ClBranch, Bgu: ClBranch, Bgeu: ClBranch,
	Blu: ClBranch, Bleu: ClBranch,
	Call: ClCall, Jmpl: ClJmpl, Syscall: ClSyscall, Halt: ClHalt,
}

// Predecode predecodes in, the instruction at absolute address pc.
func Predecode(in *Instr, pc uint64) Decoded {
	d := Decoded{
		Op:    in.Op,
		Class: opClass[in.Op],
		Rd:    in.Rd,
		Rs1:   in.Rs1,
		Rs2:   in.Rs2,
		Imm:   int64(in.Imm),
	}
	if in.UseImm {
		d.Flags |= DFlagImm
	}
	switch d.Class {
	case ClBranch, ClCall:
		if t, ok := in.BranchTarget(pc); ok {
			d.Imm = int64(t)
		}
	case ClSetHi:
		if in.UseImm {
			d.Class = ClMovImm
			d.Imm = int64(in.Imm) << SetHiShift
		}
	case ClJmpl:
		if in.Rd == G0 && in.Rs1 == O7 {
			d.Flags |= DFlagRet
		}
	}
	if in.Op.IsMem() {
		d.MemSize = uint8(in.Op.MemBytes())
	}
	return d
}

// PredecodeAll predecodes a text segment loaded at base.
func PredecodeAll(text []Instr, base uint64) []Decoded {
	dec := make([]Decoded, len(text))
	for i := range text {
		dec[i] = Predecode(&text[i], base+uint64(i)*InstrBytes)
	}
	return dec
}
