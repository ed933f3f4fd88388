package machine

import (
	"encoding/binary"

	"dsprof/internal/hwc"
	"dsprof/internal/isa"
	"dsprof/internal/mem"
	"dsprof/internal/tlb"
)

// This file is the engine's binary translator: hot superblocks of
// predecoded instructions compile into threaded code — flat arrays of
// pre-resolved operations whose register operands are pointers into the
// register file and whose immediates, branch targets, and fetch lines are
// constants — executed by one tight dispatch loop with block-level
// cycle/instruction accounting and a single EvInstrs/EvCycles flush at
// the end of each translated stretch.
//
// Safety rests on three invariants, checked before any translated code
// runs (see DESIGN.md §11):
//
//  1. Eligibility. Every counter event is covered at the batch boundary:
//     EvInstrs/EvCycles by the stretch flush, and armed memory, I$, and
//     TLB events by inline count() calls on the probe and miss paths
//     (routed into the machine's per-batch event deltas). The armed-event
//     budget in runBatch shrinks the horizon so no armed counter can
//     overflow anywhere inside the batch, which is what lets a deferred
//     delta stand in for exact per-event Adds: an Add that cannot
//     overflow needs no trigger attribution and draws no skid. When a
//     counter is too close to overflow for any budget — an E$-stall
//     counter within the worst-case instruction cost (384 cycles on the
//     study machine: 40 divide + 12 I$ miss + 100 TLB miss + 14 E$ hit
//     + 180 memory + 30 store miss + 8 writeback), or Headroom refusing
//     an I$ or per-access counter — no translated code runs: the batch
//     goes to runInner, which counts every armed event inline at its
//     exact instruction and stops on the first overflow. At the advisor
//     loop's dense intervals (ecstall 211) that is every batch.
//  2. Horizon. A block is entered only when the remaining horizon covers
//     its worst-case footprint — instructions (ninstr), cycles (wc), and
//     memory accesses (nmem) — so the boundary flush can never overflow
//     a counter mid-stretch and no clock tick is due inside a block. The
//     armed-event budget binds each event class at its tightest sound
//     bound: I$ misses at one per instruction (maxN), the per-access
//     events — D$/E$ misses, E$ references, DTLB misses — at one per
//     memory access (maxMem), and E$ stall cycles by the cycle horizon
//     itself (stall cycles are a subset of elapsed cycles).
//  3. Trap-free bodies. Any instruction that could trap (divide by zero,
//     misalignment, segmentation) evaluates its trap predicate first and
//     bails out *before* architectural effects; the interpreter then
//     re-executes it and raises the exact trap of the reference path.
//     Blocks themselves never trap, never deliver events, never syscall.
//
// The produced execution is byte-identical to the reference stepper.
// TestFastPathEquivalence and FuzzBackendDifferential hold Step, the
// batched engine with translation held off (runInner alone) and the
// batched engine translating every block to the same machine state and
// event streams; TestFastPathGolden holds Step and the default engine to
// the same experiment bytes.

const (
	// transHeatDefault is how many dispatcher visits a cold block entry
	// needs before it is translated. Entries reached *from* a translated
	// predecessor skip the gate: successor chaining wants the whole hot
	// region compiled as soon as one seed block proves hot.
	transHeatDefault = 4
	// transMaxBlockInstrs caps a block so its worst-case cycle footprint
	// stays small against armed-cycle-counter horizons.
	transMaxBlockInstrs = 64
	// transColdChunk bounds one interpreter chunk while translation is
	// still cold, so block-entry heat accumulates at chunk granularity.
	transColdChunk = 4096
	// transWarmChunk bounds the interpreter chunk right after a translated
	// stretch: its only job is to carry execution across an untranslatable
	// instruction (a syscall, a trap retry) and return to translated code.
	transWarmChunk = 64
)

// tstate is the live state of one translated stretch. cycles accumulates
// only *dynamic* cost (fetch, TLB, and cache stalls); each block's static
// base-cost sum is added when the block completes, or the bailing
// instruction's static prefix on a bail, so a partial block charges
// exactly the cycles the reference interpreter would have.
type tstate struct {
	cycles    uint64
	n         uint64
	mem       uint64 // memory accesses retired (charged per block, see exec)
	loads     uint64 // retired loads, batched into m.stats at stretch end
	stores    uint64 // retired stores, likewise
	fetchLine uint64
	// target is the CTI successor for the in-flight block: the taken
	// target, or the fall-through PC of a not-taken branch. The delay
	// slot's bail NPC and the block's successor both read it.
	target  uint64
	bailPC  uint64
	bailNPC uint64
	bailed  bool
}

// fail records a bail-out before instruction pc executed: the translated
// stretch ends, and the interpreter re-executes pc with NPC restored to
// the value the reference path would hold (sequential, or the in-flight
// CTI target when pc is a delay slot). prefix is the static base-cost sum
// of the block's instructions before pc.
func (st *tstate) fail(pc uint64, delay bool, prefix uint64) bool {
	st.bailed = true
	st.bailPC = pc
	if delay {
		st.bailNPC = st.target
	} else {
		st.bailNPC = pc + isa.InstrBytes
	}
	st.cycles += prefix
	return false
}

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
	opDelay      uint8 = 1 << 6
	opRegOff     uint8 = 1 << 7 // second operand is *rs2, not imm
)

// Per-site cache bit layout. A memory op's aux field packs its align
// mask with the D$ and E$ way its address last hit; its prefix field
// packs the static cycle prefix with the DTLB entry its page last used.
// All are verified performance hints (see tinstr).
const (
	siteAlignMask  uint64 = 0xff
	siteEWayShift         = 8
	siteEWayMask   uint64 = 0xffffff << siteEWayShift
	siteDWayShift         = 32
	siteDWayMask   uint64 = 0xffffffff << siteDWayShift
	siteTLBShift          = 32
	sitePrefixMask uint64 = 1<<siteTLBShift - 1
)

// Instruction-fetch probe modes. Probes replicate runInner's fetch-line
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
	// prefix is the block's static base-cost sum before this instruction,
	// charged on a bail so a partial block costs exactly what the
	// reference interpreter charged. Only trap-capable ops (tMem,
	// tDivRem) can bail; for never-bailing ops that carry a folded fetch
	// probe, the field is reused as the probe's I$ way cache.
	prefix uint64
}

// Block terminator kinds.
const (
	// tEndGoto: control continues at a statically known PC (a capped
	// block, or one ended before an untranslatable instruction).
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
	nmem   uint64 // memory-access instructions (loads, stores, prefetches)
	nload  uint64 // load instructions, for the batched Loads statistic
	nstore uint64 // store instructions, for the batched Stores statistic
	static uint64 // sum of base pipeline costs
	wc     uint64 // worst-case cycle footprint (static + max stalls)
	kind   uint8
	next   uint64 // tEndGoto successor
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
	heat   []uint32
	st     tstate
	// sink absorbs writes whose architectural destination is G0 (reads
	// still see zero through Regs[0], which no translated op writes).
	sink int64
}

func (m *Machine) ensureTrans() *transState {
	if m.trans == nil {
		n := len(m.dec)
		m.trans = &transState{blocks: make([]*tblock, n), heat: make([]uint32, n)}
	}
	return m.trans
}

// SetTranslationHeat overrides the dispatcher-visit threshold at which a
// block entry is translated (0 restores the default). Tests lower it to
// force translation on short programs; it tunes warmup only, never
// which execution is produced. math.MaxUint32 keeps every entry cold:
// a block would need 2^32-1 dispatcher visits, far beyond any test or
// benchmark run, so execution stays on runInner alone.
func (m *Machine) SetTranslationHeat(n uint32) { m.transHeat = n }

func (m *Machine) heatThreshold() uint32 {
	if m.transHeat != 0 {
		return m.transHeat
	}
	return transHeatDefault
}

// runMixed fills one event horizon with translated stretches interleaved
// with bounded interpreter chunks. Bounds and fallback semantics are
// exactly runBatch's: maxN caps retired instructions, maxMem caps
// retired memory accesses (the budget unit of the armed per-access
// events), stop caps m.stats.Cycles, and anything the translator
// declines — cold code, syscalls, trap retries, delay-slot entry states
// — runs on runInner. Interpreter chunks charge the memory budget one
// access per instruction — the interpreter does not pre-count its
// instruction mix, and an instruction performs at most one access — so
// the cap holds across both engines.
//
// A stretch that made progress and then hit a budget refusal ends the
// batch instead of draining the budget tail interpreted: the caller
// re-arms the horizons from the counters' actual event counts, which
// sheds both the worst-case cycle pessimism of the refused block and
// the one-access-per-instruction pessimism of interpreter charging, and
// the next batch resumes translated at full speed. The interpreter runs
// only when the translator made no progress at all (an obstacle or a
// genuinely exhausted horizon), where it is the sole way forward.
func (m *Machine) runMixed(maxN, maxMem, stop uint64, breakOnSyscall bool) (uint64, error) {
	var total, mem uint64
	for total < maxN && mem < maxMem && !m.halted && len(m.pending) == 0 {
		k, km, refused := m.runTranslated(maxN-total, maxMem-mem, stop)
		total += k
		mem += km
		// Translated stretches cannot halt, syscall, or append pending
		// events, so only the budgets and the interpreter below decide
		// the loop.
		if refused && k > 0 {
			break // batch ends here; the caller re-arms tighter horizons
		}
		chunk := uint64(transColdChunk)
		if k > 0 {
			chunk = transWarmChunk
		}
		if rem := maxN - total; chunk > rem {
			chunk = rem
		}
		if rem := maxMem - mem; chunk > rem {
			chunk = rem
		}
		n, err := m.runInner(chunk, stop, breakOnSyscall)
		total += n
		mem += n
		if err != nil {
			return total, err
		}
		if n == 0 {
			// Immediate give-way with total == 0 (syscall under a
			// cycle-counter horizon) is handled by the caller, which must
			// flush the batch's event deltas before stepping the reference
			// path.
			break
		}
		if m.halted || len(m.pending) > 0 {
			break
		}
	}
	return total, nil
}

// runTranslated executes translated superblocks from the current PC until
// the horizon cannot cover the next block's worst-case footprint, control
// reaches untranslated (or untranslatable) code, or a block bails out for
// a trap retry. It returns how many instructions retired, the memory
// accesses charged against the per-access event budget, and whether the
// stretch ended on a budget refusal (so the caller can re-arm rather
// than interpret), and leaves PC/NPC, stats, and the fetch line exactly
// as runInner would after the same instructions.
func (m *Machine) runTranslated(maxN, maxMem, stop uint64) (uint64, uint64, bool) {
	if m.NPC != m.PC+isa.InstrBytes {
		// Mid-delay-slot entry state: only the interpreter tracks a split
		// PC/NPC pair.
		return 0, 0, false
	}
	t := m.ensureTrans()
	st := &t.st
	*st = tstate{fetchLine: m.lastFetchLine}
	pc := m.PC
	baseCycles := m.stats.Cycles
	refused := false
	var prev *tblock
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
				break // the interpreter raises the bad-PC trap
			}
			idx := int(off / isa.InstrBytes)
			blk = t.blocks[idx]
			if blk == nil {
				if prev == nil {
					// Heat gate: cold entries wait for threshold dispatcher
					// visits. Successors of a translated block compile
					// immediately — one hot seed pulls in its whole region.
					t.heat[idx]++
					if t.heat[idx] < m.heatThreshold() {
						break
					}
				}
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
		if st.n+blk.ninstr > maxN || st.mem+blk.nmem > maxMem ||
			baseCycles+st.cycles+blk.wc > stop {
			refused = true
			break // worst-case footprint does not fit the horizon
		}
		ok := blk.exec(m, st)
		// Charge the block's full access count even on a bail: the executed
		// prefix performed at most nmem accesses, and the budget only needs
		// an upper bound.
		st.mem += blk.nmem
		if !ok {
			break // bailed: st.bailPC/bailNPC hold the resume point
		}
		if blk.kind == tEndCTI {
			pc = st.target
		} else {
			pc = blk.next
		}
		prev = blk
	}
	if st.bailed {
		m.PC, m.NPC = st.bailPC, st.bailNPC
	} else {
		m.PC, m.NPC = pc, pc+isa.InstrBytes
	}
	m.lastFetchLine = st.fetchLine
	m.stats.Cycles = baseCycles + st.cycles
	m.stats.Instrs += st.n
	m.stats.Loads += st.loads
	m.stats.Stores += st.stores
	if st.n > 0 {
		// One flush per stretch, like runInner's boundary flush. The
		// horizon guarantees neither counter can overflow mid-stretch, so
		// no skid draw reorders and the trigger PC is never observed.
		m.count(hwc.EvInstrs, st.n, m.PC, 0, false)
		m.count(hwc.EvCycles, st.cycles, m.PC, 0, false)
	}
	return st.n, st.mem, refused
}

// exec is the threaded-code dispatch loop: one switch per pre-resolved
// op, no per-instruction horizon, pending, or bounds checks (the caller
// proved the whole block fits), no per-instruction cycle accounting for
// ALU ops (base costs are in the static sum). On a bail the completed
// instruction count recovers from the bail PC (ops are emitted in PC
// order); on completion the static sum is charged in one add.
func (b *tblock) exec(m *Machine, st *tstate) bool {
	code := b.code
	for i := 0; i < len(code); i++ {
		t := &code[i]
		// Folded fetch probe for never-bailing kinds: their fetch stall is
		// unconditional, so the probe rides in the op's spare op2 bits
		// instead of a standalone probe op ahead of it (probes were a
		// quarter of all dispatches). Trap-capable ops — tMem, tDivRem —
		// keep the probe inside their exec funcs, where the stall stays
		// provisional until the bail predicates pass.
		if t.op2&opProbeMask != 0 && t.kind < tDivRem {
			ppc := t.pc
			if t.kind >= tFBeRR && t.kind <= tFBleuRI {
				ppc -= 2 * isa.InstrBytes // fused ops carry the fall-through in pc
			}
			line := ppc >> m.icLineShift
			if t.op2&opProbeMask == probeAlways<<opProbeShift || line != st.fetchLine {
				st.fetchLine = line
				// prefix doubles as the site's I$ way cache: only bailing
				// ops read it as a cycle prefix, and never-bailing ops are
				// the only probe carriers.
				if !m.IC.WayHit(int(t.prefix), ppc, false) {
					m.icFoldProbeSlow(t, ppc, st)
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
			if !m.execDivRem(t, st) {
				b.bailStats(m, st)
				return false
			}
		case tMem:
			if !m.execMem(t, st) {
				b.bailStats(m, st)
				return false
			}
		case tProbeFirst:
			if t.aux != st.fetchLine {
				st.fetchLine = t.aux
				if !m.IC.WayHit(int(t.imm), t.pc, false) {
					m.icProbeSlow(t, st)
				}
			}
		case tProbeAlways:
			st.fetchLine = t.aux
			if !m.IC.WayHit(int(t.imm), t.pc, false) {
				m.icProbeSlow(t, st)
			}
		}
	}
	st.n += b.ninstr
	st.cycles += b.static
	st.loads += b.nload
	st.stores += b.nstore
	return true
}

// bailStats charges the statistics of a bailing block's completed prefix:
// the instruction count recovers from the bail PC (ops are emitted in PC
// order), and the load/store counts recount from the predecoded text —
// bails are trap retries and syscall handoffs, far off the hot path, so
// the rare rescan is cheaper than per-access increments in execMem. The
// bailing instruction itself is excluded: the interpreter re-executes it
// and performs its accounting on the reference path.
func (b *tblock) bailStats(m *Machine, st *tstate) {
	k := (st.bailPC - b.entry) / isa.InstrBytes
	st.n += k
	idx := (b.entry - TextBase) / isa.InstrBytes
	for i := idx; i < idx+k; i++ {
		switch cl := m.dec[i].Class; {
		case cl.IsLoad():
			st.loads++
		case cl.IsStore():
			st.stores++
		}
	}
}

// icProbeSlow is the fetch probe's fallback when the probe site's way
// cache fails: the full I$ access, after which the site re-learns where
// its (static) line now lives. A probe site always probes the same line,
// so the way cache only goes stale when a replacement moves it.
//
//go:noinline
func (m *Machine) icProbeSlow(t *tinstr, st *tstate) {
	hit, _ := m.IC.AccessFull(t.pc, false, true)
	t.imm = int64(m.IC.LastWay())
	if !hit {
		m.stats.ICMisses++
		st.cycles += uint64(m.Cfg.ICMissStall)
		m.count(hwc.EvICMiss, 1, t.pc, 0, false)
	}
}

// icFoldProbeSlow is icProbeSlow for a probe folded into a never-bailing
// op, whose way cache lives in the op's (otherwise unread) prefix field.
//
//go:noinline
func (m *Machine) icFoldProbeSlow(t *tinstr, ppc uint64, st *tstate) {
	hit, _ := m.IC.AccessFull(ppc, false, true)
	t.prefix = uint64(m.IC.LastWay())
	if !hit {
		m.stats.ICMisses++
		st.cycles += uint64(m.Cfg.ICMissStall)
		m.count(hwc.EvICMiss, 1, ppc, 0, false)
	}
}

// fbr publishes a fused branch's successor: the taken target (aux) or the
// PC after the delay slot (carried in the pc field; a fused op never
// probes or traps, so the field is free). The comparison result, not the
// condition codes, decides — they are equivalent by the setCC identities
// (Z ⇔ a=b, N≠V ⇔ a<b signed, C ⇔ a<b unsigned).
func fbr(st *tstate, t *tinstr, taken bool) {
	if taken {
		st.target = t.aux
	} else {
		st.target = t.pc
	}
}

// execDivRem executes a translated divide/remainder. The optional fetch
// probe is folded in because its stall must be discarded if the
// divide-by-zero predicate bails (the reference path charges no cycles
// for a trapping instruction, while its fetch state effects remain — the
// interpreter's re-execution skips the probe because the fetch line
// already matches).
func (m *Machine) execDivRem(t *tinstr, st *tstate) bool {
	op2 := t.op2
	var fs uint64
	if probe := (op2 >> opProbeShift) & 3; probe != probeNone {
		line := t.aux
		if probe == probeAlways || line != st.fetchLine {
			st.fetchLine = line
			if hit, _ := m.IC.AccessFull(t.pc, false, true); !hit {
				m.stats.ICMisses++
				fs = uint64(m.Cfg.ICMissStall)
				m.count(hwc.EvICMiss, 1, t.pc, 0, false)
			}
		}
	}
	b := t.imm
	if op2&opRegOff != 0 {
		b = *t.rs2
	}
	if b == 0 {
		// Bail before any architectural effect; the interpreter
		// re-executes, writes rd=0, and raises the exact trap.
		return st.fail(t.pc, op2&opDelay != 0, t.prefix)
	}
	if op2&opIsDiv != 0 {
		*t.rd = *t.rs1 / b
	} else {
		*t.rd = *t.rs1 % b
	}
	st.cycles += fs
	return true
}

// execMem executes a translated memory access: runInner's access() with
// the fetch probe folded in, the trap checks turned into bails, and the
// cache hierarchy entered through the specialized stall paths below
// instead of the Result-returning API. Armed events count through the
// same count() calls as the reference path (the armed-event budget
// routes them into the batch deltas); simulation state updates — DTLB,
// D$/E$, statistics — are exactly the reference path's.
func (m *Machine) execMem(t *tinstr, st *tstate) bool {
	op2 := t.op2
	var fs uint64
	if probe := (op2 >> opProbeShift) & 3; probe != probeNone {
		line := t.pc >> m.icLineShift
		if probe == probeAlways || line != st.fetchLine {
			st.fetchLine = line
			if hit, _ := m.IC.AccessFull(t.pc, false, true); !hit {
				m.stats.ICMisses++
				fs = uint64(m.Cfg.ICMissStall)
				m.count(hwc.EvICMiss, 1, t.pc, 0, false)
			}
		}
	}
	b := t.imm
	if op2&opRegOff != 0 {
		b = *t.rs2
	}
	addr := uint64(*t.rs1 + b)
	cl := isa.Class(op2 & opClassMask)
	if cl != isa.ClPrefetch && addr&t.aux&siteAlignMask != 0 {
		return st.fail(t.pc, op2&opDelay != 0, t.prefix&sitePrefixMask) // Misaligned
	}
	seg, pageSize := m.segment(addr)
	if seg == SegNone {
		if cl == isa.ClPrefetch {
			st.cycles += fs
			return true // prefetches never fault, touch no TLB or cache
		}
		return st.fail(t.pc, op2&opDelay != 0, t.prefix&sitePrefixMask) // Segv
	}
	stall := fs
	// Per-site DTLB cache (prefix high bits): most sites re-translate the
	// page they used last time; the entry index is verified against the
	// live entry, so a stale hint just falls back to the full lookup.
	pageBase := addr &^ (pageSize - 1)
	if !m.DTLB.EntryHit(int(t.prefix>>siteTLBShift), pageBase) {
		if !m.DTLB.Lookup(pageBase, pageSize) {
			m.stats.DTLBMisses++
			stall += tlb.MissPenaltyCycles
			m.count(hwc.EvDTLBMiss, 1, t.pc, addr, true)
		}
		t.prefix = t.prefix&sitePrefixMask | uint64(uint32(m.DTLB.LastIdx()))<<siteTLBShift
	}
	// The inline MRU-way probe absorbs D$ hits without the Access call,
	// exactly like the interpreter's HitMRU fast path (a failed probe
	// mutates nothing, and the miss paths below re-probe through Access,
	// so state evolution is identical either way).
	d := m.Hier.D
	switch cl {
	case isa.ClLdB:
		if !d.HitMRU(addr, false) && !d.WayHit(int(t.aux>>siteDWayShift), addr, false) {
			stall += m.loadMissStall(t, addr)
		}
		*t.rd = int64(int8(m.Mem.Page(addr)[addr&mem.HostPageMask]))
	case isa.ClLdUB:
		if !d.HitMRU(addr, false) && !d.WayHit(int(t.aux>>siteDWayShift), addr, false) {
			stall += m.loadMissStall(t, addr)
		}
		*t.rd = int64(m.Mem.Page(addr)[addr&mem.HostPageMask])
	case isa.ClLdW:
		if !d.HitMRU(addr, false) && !d.WayHit(int(t.aux>>siteDWayShift), addr, false) {
			stall += m.loadMissStall(t, addr)
		}
		*t.rd = int64(int32(binary.LittleEndian.Uint32(m.Mem.Page(addr)[addr&mem.HostPageMask:])))
	case isa.ClLdX:
		if !d.HitMRU(addr, false) && !d.WayHit(int(t.aux>>siteDWayShift), addr, false) {
			stall += m.loadMissStall(t, addr)
		}
		*t.rd = int64(binary.LittleEndian.Uint64(m.Mem.Page(addr)[addr&mem.HostPageMask:]))
	case isa.ClStB:
		if !d.HitMRU(addr, true) && !d.WayHit(int(t.aux>>siteDWayShift), addr, true) {
			stall += m.storeMissStall(t, addr)
		}
		m.Mem.Page(addr)[addr&mem.HostPageMask] = uint8(*t.rd)
	case isa.ClStW:
		if !d.HitMRU(addr, true) && !d.WayHit(int(t.aux>>siteDWayShift), addr, true) {
			stall += m.storeMissStall(t, addr)
		}
		binary.LittleEndian.PutUint32(m.Mem.Page(addr)[addr&mem.HostPageMask:], uint32(*t.rd))
	case isa.ClStX:
		if !d.HitMRU(addr, true) && !d.WayHit(int(t.aux>>siteDWayShift), addr, true) {
			stall += m.storeMissStall(t, addr)
		}
		binary.LittleEndian.PutUint64(m.Mem.Page(addr)[addr&mem.HostPageMask:], uint64(*t.rd))
	default: // prefetch
		if !d.HitMRU(addr, false) && !d.WayHit(int(t.aux>>siteDWayShift), addr, false) {
			m.prefetchFill(t, addr)
		}
	}
	st.cycles += stall
	return true
}

// loadMissStall is Hierarchy.Load plus access()'s statistics and count()
// updates for a load whose MRU-way probe missed: no Result struct
// crosses the call. Access re-runs the same MRU probe first — the failed
// probe above mutated nothing — so state evolution is identical to the
// interpreter's HitMRU-then-Load sequence.
func (m *Machine) loadMissStall(t *tinstr, addr uint64) uint64 {
	h := m.Hier
	hit, _ := h.D.AccessFull(addr, false, true)
	t.aux = t.aux&^siteDWayMask | uint64(uint32(h.D.LastWay()))<<siteDWayShift
	if hit {
		return 0
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
	}
	return uint64(stall)
}

// storeMissStall mirrors Hierarchy.Store the same way: write-through
// no-write-allocate D$, store hits absorbed by the write cache (no E$
// reference), store misses write-allocating in E$. E$ misses on stores
// count no ECRdMiss, matching Result's loads-only flag.
func (m *Machine) storeMissStall(t *tinstr, addr uint64) uint64 {
	h := m.Hier
	hit, _ := h.D.AccessFull(addr, true, false)
	if hit {
		// No-write-allocate: only a hit leaves the line resident, so only
		// a hit refreshes the site's way cache.
		t.aux = t.aux&^siteDWayMask | uint64(uint32(h.D.LastWay()))<<siteDWayShift
		return 0
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
	}
	return uint64(stall)
}

// prefetchFill mirrors Hierarchy.Prefetch: fills both levels, never
// stalls, counts an E$ reference on a D$ miss and nothing else.
func (m *Machine) prefetchFill(t *tinstr, addr uint64) {
	h := m.Hier
	hit, _ := h.D.AccessFull(addr, false, true)
	t.aux = t.aux&^siteDWayMask | uint64(uint32(h.D.LastWay()))<<siteDWayShift
	if hit {
		return
	}
	m.stats.ECRefs++
	m.count(hwc.EvECRef, 1, t.pc, addr, true)
	if !h.E.WayHit(int(t.aux&siteEWayMask)>>siteEWayShift, addr, false) {
		h.E.AccessFull(addr, false, true)
		t.aux = t.aux&^siteEWayMask | uint64(uint32(h.E.LastWay()))<<siteEWayShift&siteEWayMask
	}
}

// translateBlock compiles the superblock entered at instruction index
// idx, or returns noTransBlock when no block can start there.
func (m *Machine) translateBlock(idx int) *tblock {
	b := &tblock{entry: TextBase + uint64(idx)*isa.InstrBytes}
	stallMax := uint64(m.Cfg.Costs.EHitStall+m.Cfg.Costs.MemStall+
		m.Cfg.Costs.StoreMissStall+m.Cfg.Costs.WritebackStall) + tlb.MissPenaltyCycles
	prevLine := ^uint64(0)
	i := idx
	for {
		if i >= len(m.dec) {
			// Fell off the end of text: the interpreter raises BadPC.
			break
		}
		d := &m.dec[i]
		if d.Class == isa.ClSyscall || d.Class == isa.ClHalt {
			break // never translated; the interpreter takes over here
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
			// past the end of text) keeps the sequence on the interpreter.
			if i+1 >= len(m.dec) || m.dec[i+1].EndsBlock() {
				break
			}
			// Superinstruction fusion: a conditional branch whose block
			// predecessor is the compare feeding it collapses into one
			// fused op. The compare commutes with the branch's own fetch
			// probe (the probe touches no registers or condition codes),
			// so popping it and re-emitting it inside the fused op at the
			// branch position preserves the execution exactly; costs,
			// ninstr, and bail prefixes are per-instruction and unchanged.
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
			if probe != probeNone {
				b.wc += uint64(m.Cfg.ICMissStall)
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
			b.wc += uint64(d.Cost)

			ds := &m.dec[i+1]
			dpc := pc + isa.InstrBytes
			dprobe := probeNone
			if dpc>>m.icLineShift != line {
				dprobe = probeAlways
			}
			m.emitInstr(b, ds, dpc, dprobe, true, stallMax)
			b.static += uint64(ds.Cost)
			b.wc += uint64(ds.Cost)
			b.ninstr = uint64(i + 2 - idx)
			b.kind = tEndCTI
			return b
		}

		m.emitInstr(b, d, pc, probe, false, stallMax)
		b.static += uint64(d.Cost)
		b.wc += uint64(d.Cost)
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
	b.next = TextBase + uint64(i)*isa.InstrBytes
	return b
}

// emitInstr appends the ops for one non-CTI instruction: a combined
// probe+op for trap-capable classes (the fetch stall must be discarded if
// the trap predicate bails), an op carrying the probe in its spare op2
// bits otherwise (standalone probes survive only ahead of nops, which
// emit no op to carry one).
// The block's running static sum becomes the op's bail prefix; stallMax
// is the worst per-access memory stall, for the block's wc bound.
func (m *Machine) emitInstr(b *tblock, d *isa.Decoded, pc uint64, probe uint8, delay bool, stallMax uint64) {
	line := pc >> m.icLineShift
	flags := probe << opProbeShift
	if delay {
		flags |= opDelay
	}
	if d.Flags&isa.DFlagImm == 0 {
		flags |= opRegOff
	}
	switch {
	case d.Class.IsMem():
		if probe != probeNone {
			b.wc += uint64(m.Cfg.ICMissStall)
		}
		b.wc += stallMax
		b.nmem++
		switch {
		case d.Class.IsLoad():
			b.nload++
		case d.Class.IsStore():
			b.nstore++
		}
		b.code = append(b.code, tinstr{
			kind: tMem, op2: flags | uint8(d.Class),
			rd: m.memReg(d), rs1: &m.Regs[d.Rs1], rs2: &m.Regs[d.Rs2],
			imm: d.Imm, aux: uint64(d.MemSize - 1), pc: pc, prefix: b.static,
		})
		return
	case d.Class == isa.ClDiv || d.Class == isa.ClRem:
		if probe != probeNone {
			b.wc += uint64(m.Cfg.ICMissStall)
		}
		op2 := flags
		if d.Class == isa.ClDiv {
			op2 |= opIsDiv
		}
		b.code = append(b.code, tinstr{
			kind: tDivRem, op2: op2,
			rd: m.wregPtr(d.Rd), rs1: &m.Regs[d.Rs1], rs2: &m.Regs[d.Rs2],
			imm: d.Imm, aux: line, pc: pc, prefix: b.static,
		})
		return
	}
	if probe != probeNone {
		b.wc += uint64(m.Cfg.ICMissStall)
		if d.Class == isa.ClNop {
			// A nop emits no op to carry the probe; keep it standalone.
			b.code = append(b.code, tinstr{kind: tProbeFirst - 1 + probe, pc: pc, aux: line})
			return
		}
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
