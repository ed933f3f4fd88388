package machine

import (
	"encoding/binary"

	"dsprof/internal/chunk"
	"dsprof/internal/hwc"
	"dsprof/internal/isa"
	"dsprof/internal/mem"
	"dsprof/internal/tlb"
)

// This file is the engine's binary translator: superblocks of
// predecoded instructions compile into threaded code — flat arrays of
// pre-resolved operations whose register operands are pointers into the
// register file and whose immediates, branch targets, and fetch lines are
// constants — executed by one tight dispatch loop with block-level
// cycle/instruction accounting and a single EvInstrs/EvCycles flush at
// the end of each translated stretch.
//
// Safety rests on three invariants (see DESIGN.md §11):
//
//  1. Exact counting. Armed memory, I$, and TLB events count at their
//     instruction through the same count() calls as the reference path,
//     on the probe and miss paths, with the op's PC and effective address
//     as trigger. An op whose count made an overflow pending is the last
//     of its stretch: the block side-exits right after its instruction,
//     and Step ages the skid from there.
//  2. Horizon. A block runs whole only when the remaining horizon covers
//     its instructions (ninstr) and its static cost, charged before it
//     runs; otherwise its longest prefix that fits runs (fit), and Step
//     takes the rest. A stall that passes the cycle horizon side-exits,
//     so a tick falls due, or the stretch flush overflows a cycle
//     counter, only after the stretch's last instruction.
//  3. Trap-free bodies. Any instruction that could trap (divide by zero,
//     misalignment, segmentation) evaluates its trap predicate before its
//     fetch probe and any architectural effect, and bails out; Step then
//     re-executes it, probing, counting and trapping exactly as the
//     reference path does. Blocks never trap, deliver events, or syscall.
//
// Every exit — block end, side exit, prefix, bail — leaves PC/NPC after
// the last retired instruction, so every instruction of a run is either
// translated or stepped. The produced execution is byte-identical to the
// reference stepper: TestFastPathEquivalence and FuzzBackendDifferential
// hold Step and the engine (Run, and RunFor in 7-instruction slices) to
// the same machine state and event streams; TestFastPathGolden holds them
// to the same experiment bytes.

const (
	// transMaxBlockInstrs caps a block so its static cost stays small
	// against the cycle horizons.
	transMaxBlockInstrs = 64
)

// tstate is the live state of one translated stretch. cycles gets each
// block's static cost before the block runs and the dynamic cost (fetch,
// TLB, and cache stalls) as ops take it; retire takes back what a partial
// block did not run, so the stretch costs exactly what Step would charge.
type tstate struct {
	cycles    uint64
	horizon   uint64 // cycles the stretch may reach before a stall ends it
	n         uint64
	loads     uint64 // retired loads, batched into m.stats at stretch end
	stores    uint64 // retired stores, likewise
	fetchLine uint64
	// target is the CTI successor for the in-flight block: the taken
	// target, or the fall-through PC of a not-taken branch. The block's
	// successor, and the NPC of an exit in its delay slot, read it.
	target uint64
}

// Outcomes of a trap-capable op (tMem, tDivRem) and of a miss path. An
// op's miss paths combine theirs with |, so opDone must stay zero.
const (
	opDone uint8 = iota // retired
	opExit              // retired, and it left an overflow pending or passed the cycle horizon
	opBail              // its trap predicate holds: not executed, Step re-executes it
)

// Threaded-op kinds. ALU operations get separate register/immediate
// variants so their dispatch cases are branch-free; rarer trap-capable
// and control ops fold variants into op2 flag bits.
const (
	tAddRR uint8 = iota
	tAddRI
	tSubRR
	tSubRI
	tMulRR
	tMulRI
	tAndRR
	tAndRI
	tOrRR
	tOrRI
	tXorRR
	tXorRI
	tSllRR
	tSllRI
	tSrlRR
	tSrlRI
	tSraRR
	tSraRI
	tMov
	tSetHiR
	tCmpRR
	tCmpRI
	// Fused compare-and-branch superinstructions: a ClCmp immediately
	// followed by the conditional branch it feeds collapses into one op
	// that sets the condition codes (later code may still read them) and
	// selects the successor from the comparison directly. Ordered in
	// tBe..tBleu condition order, register/immediate variants adjacent,
	// so the emitter computes the kind arithmetically.
	tFBeRR
	tFBeRI
	tFBneRR
	tFBneRI
	tFBgRR
	tFBgRI
	tFBgeRR
	tFBgeRI
	tFBlRR
	tFBlRI
	tFBleRR
	tFBleRI
	tFBguRR
	tFBguRI
	tFBgeuRR
	tFBgeuRI
	tFBluRR
	tFBluRI
	tFBleuRR
	tFBleuRI
	tBa
	tBe
	tBne
	tBg
	tBge
	tBl
	tBle
	tBgu
	tBgeu
	tBlu
	tBleu
	tCall
	tJmpl
	tDivRem
	tMem
	tProbeFirst
	tProbeAlways
)

// op2 flag bits, shared by tMem/tDivRem/tJmpl.
const (
	// low 4 bits: the isa.Class for tMem; opIsDiv/opJmplRet below reuse
	// bit 0 for tDivRem/tJmpl, whose class is implied by the kind.
	opClassMask  uint8 = 0x0f
	opIsDiv      uint8 = 1 << 0
	opJmplRet    uint8 = 1 << 0
	opProbeShift       = 4 // 2 bits: probeNone/probeFirst/probeAlways
	opProbeMask  uint8 = 3 << opProbeShift
	opRegOff     uint8 = 1 << 7 // second operand is *rs2, not imm
)

// Per-site cache bit layout. A memory op's aux field packs its align
// mask with the D$ and E$ way its address last hit; its way field holds
// the DTLB entry its page last used. All are verified performance hints
// (see tinstr).
const (
	siteAlignMask uint64 = 0xff
	siteEWayShift        = 8
	siteEWayMask  uint64 = 0xffffff << siteEWayShift
	siteDWayShift        = 32
	siteDWayMask  uint64 = 0xffffffff << siteDWayShift
)

// Instruction-fetch probe modes. Probes replicate exec1's fetch-line
// check: the I$ is probed only when execution leaves the current fetch
// line. Within a block every crossing is static except the entry.
const (
	probeNone   uint8 = iota
	probeFirst        // block entry: compare against the live fetch line
	probeAlways       // static line crossing: always probe
)

// tinstr is one threaded operation: an instruction with operands resolved
// to register-file pointers and decode-time constants, or a standalone
// fetch probe. The ops of a block sit in one contiguous slice, so the
// dispatch loop streams them with no pointer chasing. Memory and probe
// ops are self-modifying in one narrow sense: they cache the cache way
// they last hit (a pure performance hint, verified by tag compare on
// every use) so repeat hits retire inline without the full Access call.
type tinstr struct {
	kind uint8
	op2  uint8
	rd   *int64
	rs1  *int64
	rs2  *int64
	imm  int64  // immediate operand / branch or call target / probe way cache
	aux  uint64 // branch fall-through PC; probe fetch line; mem align mask (low byte) + way cache (high bits)
	pc   uint64
	// way is a memory op's DTLB entry cache, or the I$ way cache of the
	// fetch probe a never-bailing op carries folded in.
	way uint64
}

// fused reports whether t is a fused compare-and-branch. It covers the
// compare, any nops between (which emit no op), and the branch.
func (t *tinstr) fused() bool { return t.kind >= tFBeRR && t.kind <= tFBleuRI }

// instrPC returns the PC of the last instruction op t executes: the
// branch of a fused compare-and-branch, whose pc field carries the PC
// after the delay slot.
func (t *tinstr) instrPC() uint64 {
	if t.fused() {
		return t.pc - 2*isa.InstrBytes
	}
	return t.pc
}

// Block terminator kinds.
const (
	// tEndGoto: control falls through to the instruction after the block
	// (a capped block, or one ended before an untranslatable instruction).
	tEndGoto uint8 = iota
	// tEndCTI: the block ends with a CTI plus its delay slot; the
	// successor PC is in st.target.
	tEndCTI
)

// tblock is one translated superblock: a straight-line run of
// instructions ending with a CTI and its delay slot (tEndCTI) or at a
// statically known fall-through (tEndGoto).
type tblock struct {
	entry  uint64
	code   []tinstr
	ninstr uint64
	nload  uint64 // load instructions, for the batched Loads statistic
	nstore uint64 // store instructions, for the batched Stores statistic
	static uint64 // sum of base pipeline costs
	kind   uint8
	// s0/s1 cache the first two translated successors, so the dispatcher
	// follows hot block-to-block edges (a goto, a branch's taken and
	// fall-through arms) by pointer instead of re-resolving the PC
	// through the block table. Only real translated blocks are cached
	// (never nil or noTransBlock), and the pointers die with the whole
	// transState on LoadProgram, so they can never go stale.
	s0, s1 *tblock
}

// noTransBlock marks a block entry that can never be translated (its
// first instruction is a syscall, halt, or a CTI with an untranslatable
// delay slot), so the dispatcher stops probing it.
var noTransBlock = &tblock{}

// transState is the per-program translation cache. It is dropped whole
// on LoadProgram: translated ops capture register pointers and
// decode-time constants of the loaded text, so they must not outlive it.
// (Stores cannot invalidate translations: the machine executes only from
// the predecoded dec array on every engine path, never from data memory,
// so self-modifying stores alter no execution path — see DESIGN.md §11.)
type transState struct {
	blocks []*tblock
	st     tstate
	// sink absorbs writes whose architectural destination is G0 (reads
	// still see zero through Regs[0], which no translated op writes).
	sink int64
	// scratch is the op buffer translateBlock emits into. A finished
	// block's ops are copied into ops and its tblock into tblocks, chunked
	// storage whose addresses never move (blocks and s0/s1 point into
	// it), so translating a block allocates nothing but a new chunk now
	// and then.
	scratch []tinstr
	ops     chunk.List[tinstr]
	tblocks chunk.List[tblock]
}

func (m *Machine) ensureTrans() *transState {
	if m.trans == nil {
		m.trans = &transState{blocks: make([]*tblock, len(m.dec))}
	}
	return m.trans
}

// runTranslated executes translated superblocks from the current PC
// within the horizon: at most maxN instructions, and m.stats.Cycles at
// most stop. A block is translated on its first dispatch. The stretch
// ends when the next block does not fit whole (after running the prefix
// that does), control reaches untranslatable code, a count leaves an
// overflow pending or a stall passes stop (a side exit), or an op bails
// for a trap retry. It returns how many instructions retired and leaves
// PC/NPC, stats, and the fetch line exactly as Step would after the same
// instructions.
func (m *Machine) runTranslated(maxN, stop uint64) uint64 {
	pc, npc := m.PC, m.NPC
	if npc != pc+isa.InstrBytes {
		// Mid-delay-slot entry state: only Step tracks a split PC/NPC pair.
		return 0
	}
	t := m.ensureTrans()
	st := &t.st
	baseCycles := m.stats.Cycles
	*st = tstate{horizon: stop - baseCycles, fetchLine: m.lastFetchLine}
	// prev is the last block that retired instructions (its first pk, if
	// the stretch ended inside it).
	var prev *tblock
	var pk uint64
	for {
		var blk *tblock
		if prev != nil {
			// Hot edge: the previous block has seen this successor before,
			// so follow the cached pointer straight to it.
			if s := prev.s0; s != nil && s.entry == pc {
				blk = s
			} else if s := prev.s1; s != nil && s.entry == pc {
				blk = s
			}
		}
		if blk == nil {
			off := pc - TextBase
			if off >= m.textSize || off%isa.InstrBytes != 0 {
				break // Step raises the bad-PC trap
			}
			idx := int(off / isa.InstrBytes)
			blk = t.blocks[idx]
			if blk == nil {
				blk = m.translateBlock(idx)
				t.blocks[idx] = blk
			}
			if blk == noTransBlock {
				break
			}
			if prev != nil {
				if prev.s0 == nil {
					prev.s0 = blk
				} else if prev.s1 == nil {
					prev.s1 = blk
				}
			}
		}
		code, k, c := blk.code, blk.ninstr, blk.static
		if st.n+k > maxN || st.cycles+c > st.horizon {
			// The block overruns a horizon: run the prefix that fits.
			var j int
			if j, k, c = m.fit(blk, maxN-st.n, st.horizon-st.cycles); k == 0 {
				break
			}
			code = code[:j]
		}
		st.cycles += c
		ek, early := blk.exec(m, st, code)
		if early {
			k = ek
		}
		if k == blk.ninstr {
			st.n += k
			st.loads += blk.nload
			st.stores += blk.nstore
		} else {
			blk.retire(m, st, k, c)
		}
		pc, npc = blk.resume(st, k)
		if early || k < blk.ninstr {
			if k > 0 {
				prev, pk = blk, k
			}
			break
		}
		prev = blk
	}
	m.PC, m.NPC = pc, npc
	m.lastFetchLine = st.fetchLine
	m.stats.Cycles = baseCycles + st.cycles
	m.stats.Instrs += st.n
	m.stats.Loads += st.loads
	m.stats.Stores += st.stores
	if st.n > 0 {
		// One flush per stretch, counted as Step counts its last
		// instruction (instructions, then cycles, at that PC): only there
		// can a stall have taken the cycles past a counter's overflow, and
		// the instruction horizon keeps EvInstrs short of it.
		if pk == 0 {
			pk = prev.ninstr
		}
		last := prev.entry + (pk-1)*isa.InstrBytes
		m.count(hwc.EvInstrs, st.n, last, 0, false)
		m.count(hwc.EvCycles, st.cycles, last, 0, false)
	}
	return st.n
}

// fit returns the longest prefix of b within nmax instructions and cmax
// cycles of static cost: its first j ops, covering k instructions that
// cost c. A fused compare-and-branch op is never split.
func (m *Machine) fit(b *tblock, nmax, cmax uint64) (j int, k, c uint64) {
	dec := m.dec[(b.entry-TextBase)/isa.InstrBytes:][:b.ninstr]
	for n := min(nmax, b.ninstr); k < n && c+uint64(dec[k].Cost) <= cmax; k++ {
		c += uint64(dec[k].Cost)
	}
	// Map k to ops. A prefix ending inside a fused compare-and-branch
	// stops before its compare.
	for ; j < len(b.code); j++ {
		t := &b.code[j]
		last := (t.instrPC() - b.entry) / isa.InstrBytes
		if last < k {
			continue
		}
		if t.fused() {
			first := last - 1
			for dec[first].Class != isa.ClCmp {
				first--
			}
			for ; k > first; k-- {
				c -= uint64(dec[k-1].Cost)
			}
		}
		break
	}
	return j, k, c
}

// retire charges the first k instructions of a partial block b to the
// stretch from the predecoded text, in place of the c static cycles
// charged before it ran: side exits, prefixes and bails are rare, so the
// rescan is cheaper than per-op accounting. (A whole block charges its
// precomputed sums inline in runTranslated.)
func (b *tblock) retire(m *Machine, st *tstate, k, c uint64) {
	st.n += k
	st.cycles -= c
	idx := (b.entry - TextBase) / isa.InstrBytes
	for i := idx; i < idx+k; i++ {
		d := &m.dec[i]
		st.cycles += uint64(d.Cost)
		switch {
		case d.Class.IsLoad():
			st.loads++
		case d.Class.IsStore():
			st.stores++
		}
	}
}

// resume returns the PC/NPC after the first k instructions of b: past a
// completed CTI block at its successor, after the CTI alone in the delay
// slot with NPC at the successor, otherwise sequential.
func (b *tblock) resume(st *tstate, k uint64) (pc, npc uint64) {
	pc = b.entry + k*isa.InstrBytes
	if b.kind == tEndCTI {
		switch k {
		case b.ninstr:
			pc = st.target
		case b.ninstr - 1:
			return pc, st.target
		}
	}
	return pc, pc + isa.InstrBytes
}

// exec is the threaded-code dispatch loop over code, all of b.code or a
// prefix of it: one switch per pre-resolved op, with no per-op horizon,
// pending, or bounds checks (the caller proved the ops fit) and no
// per-op cycle accounting for ALU ops (the caller charges base costs).
// It returns early — with k, the instructions of b retired — when an op
// bails (k excludes it) or left an overflow pending or passed the cycle
// horizon (k includes the op's instructions). Only miss paths can count
// or stall, so only they look at the pending list and the horizon.
func (b *tblock) exec(m *Machine, st *tstate, code []tinstr) (k uint64, early bool) {
	for i := 0; i < len(code); i++ {
		t := &code[i]
		// Folded fetch probe for never-bailing kinds: their fetch stall is
		// unconditional, so the probe rides in the op's spare op2 bits
		// instead of a standalone probe op ahead of it (probes were a
		// quarter of all dispatches). Trap-capable ops — tMem, tDivRem —
		// probe inside their exec funcs, after their bail predicates.
		if t.op2&opProbeMask != 0 && t.kind < tDivRem {
			ppc := t.instrPC()
			line := ppc >> m.icLineShift
			if t.op2&opProbeMask == probeAlways<<opProbeShift || line != st.fetchLine {
				st.fetchLine = line
				if !m.IC.WayHit(int(t.way), ppc, false) && m.icFoldProbeSlow(t, ppc, st) == opExit {
					// End the loop after this op, which still runs, and
					// side-exit after its (last) instruction.
					code = code[:i+1]
					k, early = (ppc-b.entry)/isa.InstrBytes+1, true
				}
			}
		}
		switch t.kind {
		case tAddRR:
			*t.rd = *t.rs1 + *t.rs2
		case tAddRI:
			*t.rd = *t.rs1 + t.imm
		case tSubRR:
			*t.rd = *t.rs1 - *t.rs2
		case tSubRI:
			*t.rd = *t.rs1 - t.imm
		case tMulRR:
			*t.rd = *t.rs1 * *t.rs2
		case tMulRI:
			*t.rd = *t.rs1 * t.imm
		case tAndRR:
			*t.rd = *t.rs1 & *t.rs2
		case tAndRI:
			*t.rd = *t.rs1 & t.imm
		case tOrRR:
			*t.rd = *t.rs1 | *t.rs2
		case tOrRI:
			*t.rd = *t.rs1 | t.imm
		case tXorRR:
			*t.rd = *t.rs1 ^ *t.rs2
		case tXorRI:
			*t.rd = *t.rs1 ^ t.imm
		case tSllRR:
			*t.rd = *t.rs1 << (uint64(*t.rs2) & 63)
		case tSllRI:
			*t.rd = *t.rs1 << t.aux
		case tSrlRR:
			*t.rd = int64(uint64(*t.rs1) >> (uint64(*t.rs2) & 63))
		case tSrlRI:
			*t.rd = int64(uint64(*t.rs1) >> t.aux)
		case tSraRR:
			*t.rd = *t.rs1 >> (uint64(*t.rs2) & 63)
		case tSraRI:
			*t.rd = *t.rs1 >> t.aux
		case tMov:
			*t.rd = t.imm
		case tSetHiR:
			*t.rd = *t.rs2 << isa.SetHiShift
		case tCmpRR:
			m.setCC(*t.rs1, *t.rs2)
		case tCmpRI:
			m.setCC(*t.rs1, t.imm)
		case tFBeRR:
			a, c := *t.rs1, *t.rs2
			m.setCC(a, c)
			fbr(st, t, a == c)
		case tFBeRI:
			a := *t.rs1
			m.setCC(a, t.imm)
			fbr(st, t, a == t.imm)
		case tFBneRR:
			a, c := *t.rs1, *t.rs2
			m.setCC(a, c)
			fbr(st, t, a != c)
		case tFBneRI:
			a := *t.rs1
			m.setCC(a, t.imm)
			fbr(st, t, a != t.imm)
		case tFBgRR:
			a, c := *t.rs1, *t.rs2
			m.setCC(a, c)
			fbr(st, t, a > c)
		case tFBgRI:
			a := *t.rs1
			m.setCC(a, t.imm)
			fbr(st, t, a > t.imm)
		case tFBgeRR:
			a, c := *t.rs1, *t.rs2
			m.setCC(a, c)
			fbr(st, t, a >= c)
		case tFBgeRI:
			a := *t.rs1
			m.setCC(a, t.imm)
			fbr(st, t, a >= t.imm)
		case tFBlRR:
			a, c := *t.rs1, *t.rs2
			m.setCC(a, c)
			fbr(st, t, a < c)
		case tFBlRI:
			a := *t.rs1
			m.setCC(a, t.imm)
			fbr(st, t, a < t.imm)
		case tFBleRR:
			a, c := *t.rs1, *t.rs2
			m.setCC(a, c)
			fbr(st, t, a <= c)
		case tFBleRI:
			a := *t.rs1
			m.setCC(a, t.imm)
			fbr(st, t, a <= t.imm)
		case tFBguRR:
			a, c := *t.rs1, *t.rs2
			m.setCC(a, c)
			fbr(st, t, uint64(a) > uint64(c))
		case tFBguRI:
			a := *t.rs1
			m.setCC(a, t.imm)
			fbr(st, t, uint64(a) > uint64(t.imm))
		case tFBgeuRR:
			a, c := *t.rs1, *t.rs2
			m.setCC(a, c)
			fbr(st, t, uint64(a) >= uint64(c))
		case tFBgeuRI:
			a := *t.rs1
			m.setCC(a, t.imm)
			fbr(st, t, uint64(a) >= uint64(t.imm))
		case tFBluRR:
			a, c := *t.rs1, *t.rs2
			m.setCC(a, c)
			fbr(st, t, uint64(a) < uint64(c))
		case tFBluRI:
			a := *t.rs1
			m.setCC(a, t.imm)
			fbr(st, t, uint64(a) < uint64(t.imm))
		case tFBleuRR:
			a, c := *t.rs1, *t.rs2
			m.setCC(a, c)
			fbr(st, t, uint64(a) <= uint64(c))
		case tFBleuRI:
			a := *t.rs1
			m.setCC(a, t.imm)
			fbr(st, t, uint64(a) <= uint64(t.imm))
		case tBa:
			st.target = uint64(t.imm)
		case tBe:
			if m.ccZ {
				st.target = uint64(t.imm)
			} else {
				st.target = t.aux
			}
		case tBne:
			if !m.ccZ {
				st.target = uint64(t.imm)
			} else {
				st.target = t.aux
			}
		case tBg:
			if !(m.ccZ || (m.ccN != m.ccV)) {
				st.target = uint64(t.imm)
			} else {
				st.target = t.aux
			}
		case tBge:
			if m.ccN == m.ccV {
				st.target = uint64(t.imm)
			} else {
				st.target = t.aux
			}
		case tBl:
			if m.ccN != m.ccV {
				st.target = uint64(t.imm)
			} else {
				st.target = t.aux
			}
		case tBle:
			if m.ccZ || (m.ccN != m.ccV) {
				st.target = uint64(t.imm)
			} else {
				st.target = t.aux
			}
		case tBgu:
			if !(m.ccC || m.ccZ) {
				st.target = uint64(t.imm)
			} else {
				st.target = t.aux
			}
		case tBgeu:
			if !m.ccC {
				st.target = uint64(t.imm)
			} else {
				st.target = t.aux
			}
		case tBlu:
			if m.ccC {
				st.target = uint64(t.imm)
			} else {
				st.target = t.aux
			}
		case tBleu:
			if m.ccC || m.ccZ {
				st.target = uint64(t.imm)
			} else {
				st.target = t.aux
			}
		case tCall:
			m.Regs[isa.O7] = int64(t.pc)
			m.callstack = append(m.callstack, t.pc)
			st.target = uint64(t.imm)
		case tJmpl:
			b := t.imm
			if t.op2&opRegOff != 0 {
				b = *t.rs2
			}
			target := uint64(*t.rs1 + b) // before the rd write: rd may be rs1
			*t.rd = int64(t.pc)
			if t.op2&opJmplRet != 0 && len(m.callstack) > 0 {
				m.callstack = m.callstack[:len(m.callstack)-1]
			}
			st.target = target
		case tDivRem:
			if r := m.execDivRem(t, st); r != opDone {
				return b.stopAt(t, r)
			}
		case tMem:
			if r := m.execMem(t, st); r != opDone {
				return b.stopAt(t, r)
			}
		case tProbeFirst:
			if t.aux != st.fetchLine {
				st.fetchLine = t.aux
				if !m.IC.WayHit(int(t.imm), t.pc, false) && m.icProbeSlow(t, st) == opExit {
					return b.stopAt(t, opExit)
				}
			}
		case tProbeAlways:
			st.fetchLine = t.aux
			if !m.IC.WayHit(int(t.imm), t.pc, false) && m.icProbeSlow(t, st) == opExit {
				return b.stopAt(t, opExit)
			}
		}
	}
	return k, early
}

// stopAt is exec's early return at op t, a trap-capable op or a probe,
// which covers the one instruction at t.pc: before it on a bail, after it
// on a side exit.
func (b *tblock) stopAt(t *tinstr, r uint8) (uint64, bool) {
	k := (t.pc - b.entry) / isa.InstrBytes
	if r == opExit {
		k++
	}
	return k, true
}

// missExit reports opExit when a count just left an overflow pending or
// a stall took the stretch past its cycle horizon. Stretches start with
// none pending and within the horizon, so the op that calls it did either.
func (m *Machine) missExit(st *tstate) uint8 {
	if len(m.pending) != 0 || st.cycles > st.horizon {
		return opExit
	}
	return opDone
}

// icMiss charges an I$ miss on the fetch at pc: the statistic, the stall,
// and the armed count.
func (m *Machine) icMiss(pc uint64, st *tstate) uint8 {
	m.stats.ICMisses++
	st.cycles += uint64(m.Cfg.ICMissStall)
	m.count(hwc.EvICMiss, 1, pc, 0, false)
	return m.missExit(st)
}

// icProbeSlow is the fetch probe's fallback when the probe site's way
// cache fails: the full I$ access, after which the site re-learns where
// its (static) line now lives. A probe site always probes the same line,
// so the way cache only goes stale when a replacement moves it.
//
//go:noinline
func (m *Machine) icProbeSlow(t *tinstr, st *tstate) uint8 {
	hit, _ := m.IC.AccessFull(t.pc, false, true)
	t.imm = int64(m.IC.LastWay())
	if hit {
		return opDone
	}
	return m.icMiss(t.pc, st)
}

// icFoldProbeSlow is icProbeSlow for a probe folded into a never-bailing
// op, whose way cache lives in the op's way field.
//
//go:noinline
func (m *Machine) icFoldProbeSlow(t *tinstr, ppc uint64, st *tstate) uint8 {
	hit, _ := m.IC.AccessFull(ppc, false, true)
	t.way = uint64(m.IC.LastWay())
	if hit {
		return opDone
	}
	return m.icMiss(ppc, st)
}

// fbr publishes a fused branch's successor: the taken target (aux) or the
// PC after the delay slot (carried in the pc field; a fused op never
// traps, and its probe reads the branch PC through instrPC). The
// comparison result, not the condition codes, decides — they are
// equivalent by the setCC identities (Z ⇔ a=b, N≠V ⇔ a<b signed, C ⇔ a<b
// unsigned).
func fbr(st *tstate, t *tinstr, taken bool) {
	if taken {
		st.target = t.aux
	} else {
		st.target = t.pc
	}
}

// execDivRem executes a translated divide/remainder. The divide-by-zero
// predicate comes first: a bail leaves the I$ and the counters untouched,
// and Step's re-execution probes, writes rd=0, and raises the exact trap.
func (m *Machine) execDivRem(t *tinstr, st *tstate) uint8 {
	op2 := t.op2
	b := t.imm
	if op2&opRegOff != 0 {
		b = *t.rs2
	}
	if b == 0 {
		return opBail
	}
	r := opDone
	if probe := (op2 >> opProbeShift) & 3; probe != probeNone {
		if probe == probeAlways || t.aux != st.fetchLine {
			st.fetchLine = t.aux
			if hit, _ := m.IC.AccessFull(t.pc, false, true); !hit {
				r = m.icMiss(t.pc, st)
			}
		}
	}
	if op2&opIsDiv != 0 {
		*t.rd = *t.rs1 / b
	} else {
		*t.rd = *t.rs1 % b
	}
	return r
}

// execMem executes a translated memory access: exec1's fetch probe and
// access() with the trap checks turned into bails ahead of the probe, and
// the cache hierarchy entered through the specialized miss paths below
// instead of the Result-returning API. Armed events count through the
// same count() calls as the reference path, with the same trigger;
// simulation state updates — I$, DTLB, D$/E$, statistics — are exactly
// the reference path's.
func (m *Machine) execMem(t *tinstr, st *tstate) uint8 {
	op2 := t.op2
	b := t.imm
	if op2&opRegOff != 0 {
		b = *t.rs2
	}
	addr := uint64(*t.rs1 + b)
	cl := isa.Class(op2 & opClassMask)
	if cl != isa.ClPrefetch && addr&t.aux&siteAlignMask != 0 {
		return opBail // misaligned
	}
	seg, pageSize := m.segment(addr)
	if seg == SegNone && cl != isa.ClPrefetch {
		return opBail // segv
	}
	r := opDone
	if probe := (op2 >> opProbeShift) & 3; probe != probeNone {
		line := t.pc >> m.icLineShift
		if probe == probeAlways || line != st.fetchLine {
			st.fetchLine = line
			if hit, _ := m.IC.AccessFull(t.pc, false, true); !hit {
				r = m.icMiss(t.pc, st)
			}
		}
	}
	if seg == SegNone {
		return r // prefetches never fault, touch no TLB or cache
	}
	// Per-site DTLB cache: most sites re-translate the page they used last
	// time; the entry index is verified against the live entry, so a stale
	// hint just falls back to the full lookup.
	pageBase := addr &^ (pageSize - 1)
	if !m.DTLB.EntryHit(int(t.way), pageBase) {
		if !m.DTLB.Lookup(pageBase, pageSize) {
			m.stats.DTLBMisses++
			st.cycles += tlb.MissPenaltyCycles
			m.count(hwc.EvDTLBMiss, 1, t.pc, addr, true)
			r |= m.missExit(st)
		}
		t.way = uint64(uint32(m.DTLB.LastIdx()))
	}
	// The inline MRU-way probe absorbs D$ hits without the Access call,
	// exactly like the interpreter's HitMRU fast path (a failed probe
	// mutates nothing, and the miss paths below re-probe through Access,
	// so state evolution is identical either way).
	d := m.Hier.D
	switch cl {
	case isa.ClLdB:
		if !d.HitMRU(addr, false) && !d.WayHit(int(t.aux>>siteDWayShift), addr, false) {
			r |= m.loadMiss(t, addr, st)
		}
		*t.rd = int64(int8(m.Mem.Page(addr)[addr&mem.HostPageMask]))
	case isa.ClLdUB:
		if !d.HitMRU(addr, false) && !d.WayHit(int(t.aux>>siteDWayShift), addr, false) {
			r |= m.loadMiss(t, addr, st)
		}
		*t.rd = int64(m.Mem.Page(addr)[addr&mem.HostPageMask])
	case isa.ClLdW:
		if !d.HitMRU(addr, false) && !d.WayHit(int(t.aux>>siteDWayShift), addr, false) {
			r |= m.loadMiss(t, addr, st)
		}
		*t.rd = int64(int32(binary.LittleEndian.Uint32(m.Mem.Page(addr)[addr&mem.HostPageMask:])))
	case isa.ClLdX:
		if !d.HitMRU(addr, false) && !d.WayHit(int(t.aux>>siteDWayShift), addr, false) {
			r |= m.loadMiss(t, addr, st)
		}
		*t.rd = int64(binary.LittleEndian.Uint64(m.Mem.Page(addr)[addr&mem.HostPageMask:]))
	case isa.ClStB:
		if !d.HitMRU(addr, true) && !d.WayHit(int(t.aux>>siteDWayShift), addr, true) {
			r |= m.storeMiss(t, addr, st)
		}
		m.Mem.Page(addr)[addr&mem.HostPageMask] = uint8(*t.rd)
	case isa.ClStW:
		if !d.HitMRU(addr, true) && !d.WayHit(int(t.aux>>siteDWayShift), addr, true) {
			r |= m.storeMiss(t, addr, st)
		}
		binary.LittleEndian.PutUint32(m.Mem.Page(addr)[addr&mem.HostPageMask:], uint32(*t.rd))
	case isa.ClStX:
		if !d.HitMRU(addr, true) && !d.WayHit(int(t.aux>>siteDWayShift), addr, true) {
			r |= m.storeMiss(t, addr, st)
		}
		binary.LittleEndian.PutUint64(m.Mem.Page(addr)[addr&mem.HostPageMask:], uint64(*t.rd))
	default: // prefetch
		if !d.HitMRU(addr, false) && !d.WayHit(int(t.aux>>siteDWayShift), addr, false) {
			r |= m.prefetchFill(t, addr, st)
		}
	}
	return r
}

// loadMiss is Hierarchy.Load plus access()'s statistics and count()
// updates for a load whose MRU-way probe missed: no Result struct
// crosses the call, and the stall goes straight to the stretch. Access
// re-runs the same MRU probe first — the failed probe above mutated
// nothing — so state evolution is identical to the interpreter's
// HitMRU-then-Load sequence.
func (m *Machine) loadMiss(t *tinstr, addr uint64, st *tstate) uint8 {
	h := m.Hier
	hit, _ := h.D.AccessFull(addr, false, true)
	t.aux = t.aux&^siteDWayMask | uint64(uint32(h.D.LastWay()))<<siteDWayShift
	if hit {
		return opDone
	}
	m.stats.DCRdMisses++
	m.count(hwc.EvDCRdMiss, 1, t.pc, addr, true)
	m.stats.ECRefs++
	m.count(hwc.EvECRef, 1, t.pc, addr, true)
	// Per-site E$ way cache (aux bits 8..31): a striding site revisits
	// the same (long) E$ line for many consecutive D$ misses.
	ehit, wb := true, false
	if !h.E.WayHit(int(t.aux&siteEWayMask)>>siteEWayShift, addr, false) {
		ehit, wb = h.E.AccessFull(addr, false, true)
		t.aux = t.aux&^siteEWayMask | uint64(uint32(h.E.LastWay()))<<siteEWayShift&siteEWayMask
	}
	var stall int
	if ehit {
		stall = h.Costs.EHitStall
	} else {
		m.stats.ECRdMisses++
		m.count(hwc.EvECRdMiss, 1, t.pc, addr, true)
		stall = h.Costs.MemStall
	}
	if wb {
		stall += h.Costs.WritebackStall
	}
	h.ECStallCycles += uint64(stall)
	if stall > 0 {
		m.stats.ECStallCycles += uint64(stall)
		m.count(hwc.EvECStall, uint64(stall), t.pc, addr, true)
		st.cycles += uint64(stall)
	}
	return m.missExit(st)
}

// storeMiss mirrors Hierarchy.Store the same way: write-through
// no-write-allocate D$, store hits absorbed by the write cache (no E$
// reference), store misses write-allocating in E$. E$ misses on stores
// count no ECRdMiss, matching Result's loads-only flag.
func (m *Machine) storeMiss(t *tinstr, addr uint64, st *tstate) uint8 {
	h := m.Hier
	hit, _ := h.D.AccessFull(addr, true, false)
	if hit {
		// No-write-allocate: only a hit leaves the line resident, so only
		// a hit refreshes the site's way cache.
		t.aux = t.aux&^siteDWayMask | uint64(uint32(h.D.LastWay()))<<siteDWayShift
		return opDone
	}
	m.stats.ECRefs++
	m.count(hwc.EvECRef, 1, t.pc, addr, true)
	ehit, wb := true, false
	if !h.E.WayHit(int(t.aux&siteEWayMask)>>siteEWayShift, addr, true) {
		ehit, wb = h.E.AccessFull(addr, true, true)
		t.aux = t.aux&^siteEWayMask | uint64(uint32(h.E.LastWay()))<<siteEWayShift&siteEWayMask
	}
	var stall int
	if !ehit {
		stall = h.Costs.StoreMissStall
	}
	if wb {
		stall += h.Costs.WritebackStall
	}
	h.ECStallCycles += uint64(stall)
	if stall > 0 {
		m.stats.ECStallCycles += uint64(stall)
		m.count(hwc.EvECStall, uint64(stall), t.pc, addr, true)
		st.cycles += uint64(stall)
	}
	return m.missExit(st)
}

// prefetchFill mirrors Hierarchy.Prefetch: fills both levels, never
// stalls, counts an E$ reference on a D$ miss and nothing else.
func (m *Machine) prefetchFill(t *tinstr, addr uint64, st *tstate) uint8 {
	h := m.Hier
	hit, _ := h.D.AccessFull(addr, false, true)
	t.aux = t.aux&^siteDWayMask | uint64(uint32(h.D.LastWay()))<<siteDWayShift
	if hit {
		return opDone
	}
	m.stats.ECRefs++
	m.count(hwc.EvECRef, 1, t.pc, addr, true)
	if !h.E.WayHit(int(t.aux&siteEWayMask)>>siteEWayShift, addr, false) {
		h.E.AccessFull(addr, false, true)
		t.aux = t.aux&^siteEWayMask | uint64(uint32(h.E.LastWay()))<<siteEWayShift&siteEWayMask
	}
	return m.missExit(st)
}

// translateBlock compiles the superblock entered at instruction index
// idx, or returns noTransBlock when no block can start there.
func (m *Machine) translateBlock(idx int) *tblock {
	t := m.ensureTrans()
	b := &tblock{entry: TextBase + uint64(idx)*isa.InstrBytes, code: t.scratch[:0]}
	prevLine := ^uint64(0)
	i := idx
	for {
		if i >= len(m.dec) {
			// Fell off the end of text: Step raises BadPC.
			break
		}
		d := &m.dec[i]
		if d.Class == isa.ClSyscall || d.Class == isa.ClHalt {
			break // never translated; Step takes over here
		}
		pc := TextBase + uint64(i)*isa.InstrBytes
		line := pc >> m.icLineShift
		probe := probeNone
		switch {
		case i == idx:
			probe = probeFirst
		case line != prevLine:
			probe = probeAlways
		}
		prevLine = line

		if d.Class.IsCTI() {
			// A CTI enters a block only with a plain delay slot behind it;
			// a delay slot that is itself a CTI, a syscall, or a halt (or
			// past the end of text) keeps the sequence on Step.
			if i+1 >= len(m.dec) || m.dec[i+1].EndsBlock() {
				break
			}
			// Superinstruction fusion: a conditional branch whose block
			// predecessor is the compare feeding it collapses into one
			// fused op. The compare commutes with the branch's own fetch
			// probe (the probe touches no registers or condition codes),
			// so popping it and re-emitting it inside the fused op at the
			// branch position preserves the execution exactly; costs and
			// ninstr are per-instruction and unchanged, and exits never
			// split the pair (fit). Nops between the two emit no op, so
			// the pair fuses across them.
			// The compare must not itself carry a folded probe: popping it
			// would move that probe past the branch position.
			var fused *tinstr
			if d.Class == isa.ClBranch && d.Op != isa.Ba && len(b.code) > 0 {
				if k := b.code[len(b.code)-1].kind; (k == tCmpRR || k == tCmpRI) &&
					b.code[len(b.code)-1].op2&opProbeMask == 0 {
					cmp := b.code[len(b.code)-1]
					b.code = b.code[:len(b.code)-1]
					fused = &tinstr{
						kind: tFBeRR + 2*(branchKind[d.Op]-tBe) + (k - tCmpRR),
						rs1:  cmp.rs1, rs2: cmp.rs2, imm: cmp.imm,
						aux: uint64(d.Imm), pc: pc + 2*isa.InstrBytes,
					}
				}
			}
			if fused != nil {
				fused.op2 = probe << opProbeShift
				b.code = append(b.code, *fused)
			} else {
				ti := m.emitCTI(d, pc)
				ti.op2 |= probe << opProbeShift
				b.code = append(b.code, ti)
			}
			b.static += uint64(d.Cost)

			ds := &m.dec[i+1]
			dpc := pc + isa.InstrBytes
			dprobe := probeNone
			if dpc>>m.icLineShift != line {
				dprobe = probeAlways
			}
			m.emitInstr(b, ds, dpc, dprobe)
			b.ninstr = uint64(i + 2 - idx)
			b.kind = tEndCTI
			return t.keep(b)
		}

		m.emitInstr(b, d, pc, probe)
		i++
		if uint64(i-idx) >= transMaxBlockInstrs {
			break
		}
	}
	if i == idx {
		return noTransBlock
	}
	b.ninstr = uint64(i - idx)
	b.kind = tEndGoto
	return t.keep(b)
}

// keep stores the block b, just emitted into the scratch buffer, in
// chunked storage and returns its stable address.
func (t *transState) keep(b *tblock) *tblock {
	t.scratch = b.code[:0]
	b.code = t.ops.Copy(b.code)
	return t.tblocks.Add(*b)
}

// emitInstr appends the ops for one non-CTI instruction and adds it to
// the block's sums: a probe+op for trap-capable classes (the probe must
// follow the bail predicates), an op carrying the probe in its spare op2
// bits otherwise (standalone probes survive only ahead of nops, which
// emit no op to carry one).
func (m *Machine) emitInstr(b *tblock, d *isa.Decoded, pc uint64, probe uint8) {
	b.static += uint64(d.Cost)
	line := pc >> m.icLineShift
	flags := probe << opProbeShift
	if d.Flags&isa.DFlagImm == 0 {
		flags |= opRegOff
	}
	switch {
	case d.Class.IsMem():
		switch {
		case d.Class.IsLoad():
			b.nload++
		case d.Class.IsStore():
			b.nstore++
		}
		b.code = append(b.code, tinstr{
			kind: tMem, op2: flags | uint8(d.Class),
			rd: m.memReg(d), rs1: &m.Regs[d.Rs1], rs2: &m.Regs[d.Rs2],
			imm: d.Imm, aux: uint64(d.MemSize - 1), pc: pc,
		})
		return
	case d.Class == isa.ClDiv || d.Class == isa.ClRem:
		op2 := flags
		if d.Class == isa.ClDiv {
			op2 |= opIsDiv
		}
		b.code = append(b.code, tinstr{
			kind: tDivRem, op2: op2,
			rd: m.wregPtr(d.Rd), rs1: &m.Regs[d.Rs1], rs2: &m.Regs[d.Rs2],
			imm: d.Imm, aux: line, pc: pc,
		})
		return
	}
	if probe != probeNone && d.Class == isa.ClNop {
		// A nop emits no op to carry the probe; keep it standalone.
		b.code = append(b.code, tinstr{kind: tProbeFirst - 1 + probe, pc: pc, aux: line})
		return
	}
	if d.Class == isa.ClNop {
		return // base cost is in the static sum; nothing executes
	}
	ti := m.emitALU(d)
	ti.op2 = probe << opProbeShift
	ti.pc = pc
	b.code = append(b.code, ti)
}

// memReg resolves the register the memory op moves data through: the
// write-destination slot for loads (G0 writes go to the sink), the read
// source for stores (G0 reads zero from the file, which no op writes).
func (m *Machine) memReg(d *isa.Decoded) *int64 {
	if d.Class.IsLoad() {
		return m.wregPtr(d.Rd)
	}
	return &m.Regs[d.Rd]
}

// wregPtr returns the destination slot for register r: the register
// file, or the translation sink for the hardwired-zero G0.
func (m *Machine) wregPtr(r isa.Reg) *int64 {
	if r == isa.G0 {
		return &m.ensureTrans().sink
	}
	return &m.Regs[r]
}

// emitALU builds the op for a non-trapping, non-CTI instruction.
// Register operands resolve to register-file pointers and immediates to
// constants; the register/immediate variants get distinct kinds so their
// dispatch cases are branch-free.
func (m *Machine) emitALU(d *isa.Decoded) tinstr {
	t := tinstr{
		rd:  m.wregPtr(d.Rd),
		rs1: &m.Regs[d.Rs1],
		rs2: &m.Regs[d.Rs2],
		imm: d.Imm,
	}
	useImm := d.Flags&isa.DFlagImm != 0
	// kind = base kind for the class; +1 selects the immediate variant.
	variant := uint8(0)
	if useImm {
		variant = 1
	}
	switch d.Class {
	case isa.ClAdd:
		t.kind = tAddRR + variant
	case isa.ClSub:
		t.kind = tSubRR + variant
	case isa.ClMul:
		t.kind = tMulRR + variant
	case isa.ClAnd:
		t.kind = tAndRR + variant
	case isa.ClOr:
		t.kind = tOrRR + variant
	case isa.ClXor:
		t.kind = tXorRR + variant
	case isa.ClSll:
		t.kind = tSllRR + variant
		t.aux = uint64(d.Imm) & 63
	case isa.ClSrl:
		t.kind = tSrlRR + variant
		t.aux = uint64(d.Imm) & 63
	case isa.ClSra:
		t.kind = tSraRR + variant
		t.aux = uint64(d.Imm) & 63
	case isa.ClMovImm:
		t.kind = tMov
	case isa.ClSetHi:
		if useImm {
			// Never reached (Predecode rewrites to ClMovImm), but keep the
			// semantics anyway.
			t.kind = tMov
			t.imm = d.Imm << isa.SetHiShift
		} else {
			t.kind = tSetHiR
		}
	case isa.ClCmp:
		t.kind = tCmpRR + variant
	}
	return t
}

// branchKind maps a branch opcode to its dispatch kind.
var branchKind = map[isa.Op]uint8{
	isa.Ba: tBa, isa.Be: tBe, isa.Bne: tBne, isa.Bg: tBg, isa.Bge: tBge,
	isa.Bl: tBl, isa.Ble: tBle, isa.Bgu: tBgu, isa.Bgeu: tBgeu,
	isa.Blu: tBlu, isa.Bleu: tBleu,
}

// emitCTI builds the op for a branch, call, or jmpl. Branches publish
// the successor in st.target: the precomputed absolute target when
// taken, or the PC after the delay slot when not.
func (m *Machine) emitCTI(d *isa.Decoded, pc uint64) tinstr {
	switch d.Class {
	case isa.ClBranch:
		return tinstr{kind: branchKind[d.Op], imm: d.Imm, aux: pc + 2*isa.InstrBytes, pc: pc}
	case isa.ClCall:
		return tinstr{kind: tCall, imm: d.Imm, pc: pc}
	default: // ClJmpl
		var op2 uint8
		if d.Flags&isa.DFlagImm == 0 {
			op2 |= opRegOff
		}
		if d.Flags&isa.DFlagRet != 0 {
			op2 |= opJmplRet
		}
		return tinstr{
			kind: tJmpl, op2: op2,
			rd: m.wregPtr(d.Rd), rs1: &m.Regs[d.Rs1], rs2: &m.Regs[d.Rs2],
			imm: d.Imm, pc: pc,
		}
	}
}
