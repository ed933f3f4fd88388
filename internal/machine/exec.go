package machine

import (
	"dsprof/internal/cache"
	"dsprof/internal/hwc"
	"dsprof/internal/isa"
	"dsprof/internal/tlb"
)

// Base pipeline cost of each opcode, in cycles, before memory stalls.
// Fused into the predecoded text at load time.
var baseCost = func() [isa.NumOps]uint8 {
	var c [isa.NumOps]uint8
	for op := isa.Op(0); op < isa.NumOps; op++ {
		switch {
		case op.IsLoad():
			c[op] = 2
		case op == isa.Mul:
			c[op] = 6
		case op == isa.Div || op == isa.Rem:
			c[op] = 40
		default:
			c[op] = 1
		}
	}
	return c
}()

// batchTarget caps one translated stretch. It only bounds how much work
// runs between horizon recomputations; correctness never depends on it.
const batchTarget = 1 << 20

// Run executes instructions until the program halts or a trap occurs.
//
// Between observable events (pending overflow delivery, clock ticks,
// armed instruction and cycle overflows, the instruction budget) Run
// executes translated code, which counts every other armed event exactly
// and accounts instructions and cycles once per stretch. What translated
// code does not run — syscalls and halts, entries mid-delay-slot, trap
// retries, the skid instructions after an overflow, the instruction at
// each tick, and instructions whose static cost does not fit before a
// horizon — runs on Step. The produced execution — every counter
// overflow, its skid draw, every delivered event and clock tick — is
// identical to driving the machine with Step.
func (m *Machine) Run() error {
	for !m.halted {
		if _, err := m.runBatch(batchTarget); err != nil {
			return err
		}
	}
	return nil
}

// RunFor executes at most budget instructions as Run does, stopping
// early on halt or trap. Drivers that interleave work with execution
// (context cancellation checks, schedulers) call it in a loop instead of
// stepping instruction by instruction.
func (m *Machine) RunFor(budget uint64) error {
	for budget > 0 && !m.halted {
		n, err := m.runBatch(budget)
		if err != nil {
			return err
		}
		budget -= n
	}
	return nil
}

// runBatch executes up to limit instructions: one translated stretch
// within the event horizons, or a single reference Step when an
// observable event is due or the stretch cannot make progress. It
// returns how many instructions were retired (counting a trapping
// instruction).
func (m *Machine) runBatch(limit uint64) (uint64, error) {
	// Anything due now is delivered by the reference stepper so skid
	// aging, tick delivery and budget traps happen exactly as when the
	// machine is stepped instruction by instruction.
	if len(m.pending) > 0 || (m.ClockTickCycles > 0 && m.stats.Cycles >= m.nextTick) {
		return m.stepFallback()
	}
	maxN := limit
	if m.Cfg.MaxInstrs > 0 {
		if m.stats.Instrs >= m.Cfg.MaxInstrs {
			return m.stepFallback() // next step raises the budget trap
		}
		maxN = min(maxN, m.Cfg.MaxInstrs-m.stats.Instrs)
	}
	// A stretch counts instructions and cycles in one flush at its end.
	// An armed instruction counter bounds it at Remaining()-1, so that
	// flush never overflows. An armed cycle counter bounds its static cost
	// at Remaining()-1, and a clock tick at the tick, which Step delivers
	// at the top of the next instruction; a stall past either ends the
	// stretch after its instruction, so the cycles flush can overflow only
	// on the stretch's last instruction, counted there as Step would.
	stop := ^uint64(0)
	if m.ClockTickCycles > 0 {
		stop = m.nextTick
	}
	if mask := m.armed[hwc.EvInstrs]; mask != 0 {
		maxN = min(maxN, m.counters[picOf(mask)].Remaining()-1)
	}
	if mask := m.armed[hwc.EvCycles]; mask != 0 {
		stop = min(stop, m.stats.Cycles+m.counters[picOf(mask)].Remaining()-1)
	}
	if n := m.runTranslated(maxN, stop); n > 0 {
		return n, nil
	}
	return m.stepFallback()
}

// stepFallback retires one instruction on the reference stepper for
// runBatch, counting it in stepFallbacks.
func (m *Machine) stepFallback() (uint64, error) {
	m.stepFallbacks++
	return 1, m.Step()
}

// picOf maps a one-bit armed mask to its PIC number.
func picOf(mask uint8) int {
	if mask&1 != 0 {
		return 0
	}
	return 1
}

// Step executes one instruction, with every per-instruction check: it is
// the reference interpreter translated code must be indistinguishable
// from, and the API for callers that need instruction granularity.
func (m *Machine) Step() error {
	// Deliver profiling interrupts whose skid has elapsed: the delivered
	// PC is the next instruction to issue, i.e. the current PC.
	if len(m.pending) > 0 {
		m.deliverPending()
	}
	if m.ClockTickCycles > 0 && m.stats.Cycles >= m.nextTick {
		// One callback per elapsed tick period: a single long-running
		// instruction (a stalled syscall, say) that spans N periods
		// yields N ticks, keeping clock profiles in step with
		// stats.ClockTicks instead of undercounting.
		for m.stats.Cycles >= m.nextTick {
			m.nextTick += m.ClockTickCycles
			m.stats.ClockTicks++
			if m.OnClockTick != nil {
				m.tick = ClockTick{PC: m.PC, Callstack: m.callstackScratch(), Cycles: m.stats.Cycles}
				m.OnClockTick(&m.tick)
			}
		}
	}

	pc := m.PC
	off := pc - TextBase
	if off >= m.textSize || pc%isa.InstrBytes != 0 {
		return &Trap{Kind: TrapBadPC, PC: pc}
	}
	d := &m.dec[off/isa.InstrBytes]

	m.stats.Instrs++
	if m.Cfg.MaxInstrs > 0 && m.stats.Instrs > m.Cfg.MaxInstrs {
		return &Trap{Kind: TrapBudget, PC: pc}
	}

	cost, err := m.exec1(d, pc)
	if err != nil {
		return err
	}
	m.count(hwc.EvInstrs, 1, pc, 0, false)
	m.count(hwc.EvCycles, cost, pc, 0, false)
	return nil
}

// exec1 executes the predecoded instruction d at pc: instruction fetch,
// dispatch, cycle accounting and the PC/NPC advance. It is the reference
// semantics, and only Step calls it; the translator's tinstr switch is
// the one other implementation, held to byte-identical runs by the
// equivalence tests named in translate.go. On a trap the PC does not
// advance and no cycles are charged (matching the pre-decode stepper),
// though fetch side effects already taken (I$ state, the icm event)
// remain.
func (m *Machine) exec1(d *isa.Decoded, pc uint64) (uint64, error) {
	cost := uint64(d.Cost)

	// Instruction fetch: probe the I$ only when leaving the current
	// fetch line (sequential fetches within a line are free).
	if line := pc >> m.icLineShift; line != m.lastFetchLine {
		m.lastFetchLine = line
		if hit, _ := m.IC.Access(pc, false, true); !hit {
			m.stats.ICMisses++
			cost += uint64(m.Cfg.ICMissStall)
			m.count(hwc.EvICMiss, 1, pc, 0, false)
		}
	}
	nextNPC := m.NPC + isa.InstrBytes

	switch d.Class {
	case isa.ClNop:
		// nothing
	case isa.ClLdB, isa.ClLdUB, isa.ClLdW, isa.ClLdX,
		isa.ClStB, isa.ClStW, isa.ClStX, isa.ClPrefetch:
		addr := uint64(m.Regs[d.Rs1] + m.src2(d))
		extra, err := m.access(d, pc, addr)
		if err != nil {
			return 0, err
		}
		cost += extra
	case isa.ClAdd:
		m.wreg(d.Rd, m.Regs[d.Rs1]+m.src2(d))
	case isa.ClSub:
		m.wreg(d.Rd, m.Regs[d.Rs1]-m.src2(d))
	case isa.ClMul:
		m.wreg(d.Rd, m.Regs[d.Rs1]*m.src2(d))
	case isa.ClDiv:
		b := m.src2(d)
		if b == 0 {
			m.wreg(d.Rd, 0)
			return 0, &Trap{Kind: TrapDivZero, PC: pc}
		}
		m.wreg(d.Rd, m.Regs[d.Rs1]/b)
	case isa.ClRem:
		b := m.src2(d)
		if b == 0 {
			m.wreg(d.Rd, 0)
			return 0, &Trap{Kind: TrapDivZero, PC: pc}
		}
		m.wreg(d.Rd, m.Regs[d.Rs1]%b)
	case isa.ClAnd:
		m.wreg(d.Rd, m.Regs[d.Rs1]&m.src2(d))
	case isa.ClOr:
		m.wreg(d.Rd, m.Regs[d.Rs1]|m.src2(d))
	case isa.ClXor:
		m.wreg(d.Rd, m.Regs[d.Rs1]^m.src2(d))
	case isa.ClSll:
		m.wreg(d.Rd, m.Regs[d.Rs1]<<(uint64(m.src2(d))&63))
	case isa.ClSrl:
		m.wreg(d.Rd, int64(uint64(m.Regs[d.Rs1])>>(uint64(m.src2(d))&63)))
	case isa.ClSra:
		m.wreg(d.Rd, m.Regs[d.Rs1]>>(uint64(m.src2(d))&63))
	case isa.ClMovImm:
		m.wreg(d.Rd, d.Imm) // sethi: immediate pre-shifted at decode
	case isa.ClSetHi:
		m.wreg(d.Rd, m.src2(d)<<isa.SetHiShift)
	case isa.ClCmp:
		m.setCC(m.Regs[d.Rs1], m.src2(d))
	case isa.ClBranch:
		if m.cond(d.Op) {
			nextNPC = uint64(d.Imm) // absolute target, precomputed
		}
	case isa.ClCall:
		m.Regs[isa.O7] = int64(pc)
		m.callstack = append(m.callstack, pc)
		nextNPC = uint64(d.Imm)
	case isa.ClJmpl:
		target := uint64(m.Regs[d.Rs1] + m.src2(d))
		m.wreg(d.Rd, int64(pc))
		if d.Flags&isa.DFlagRet != 0 && len(m.callstack) > 0 {
			m.callstack = m.callstack[:len(m.callstack)-1]
		}
		nextNPC = target
	case isa.ClSyscall:
		res, extra, err := m.doSyscall(m.src2(d))
		if err != nil {
			return 0, err
		}
		m.wreg(isa.O0, res)
		cost += extra
		m.stats.SyscallCycles += extra
	case isa.ClHalt:
		m.halted = true
	}

	m.stats.Cycles += cost
	m.PC = m.NPC
	m.NPC = nextNPC
	return cost, nil
}

// src2 selects the second operand: the predecoded immediate or Rs2.
func (m *Machine) src2(d *isa.Decoded) int64 {
	if d.Flags&isa.DFlagImm != 0 {
		return d.Imm
	}
	return m.Regs[d.Rs2]
}

func (m *Machine) wreg(r isa.Reg, v int64) {
	if r != isa.G0 {
		m.Regs[r] = v
	}
}

func (m *Machine) setCC(a, b int64) {
	r := a - b
	m.ccZ = r == 0
	m.ccN = r < 0
	m.ccV = (a < 0) != (b < 0) && (r < 0) != (a < 0)
	m.ccC = uint64(a) < uint64(b)
}

func (m *Machine) cond(op isa.Op) bool {
	switch op {
	case isa.Ba:
		return true
	case isa.Be:
		return m.ccZ
	case isa.Bne:
		return !m.ccZ
	case isa.Bg:
		return !(m.ccZ || (m.ccN != m.ccV))
	case isa.Bge:
		return m.ccN == m.ccV
	case isa.Bl:
		return m.ccN != m.ccV
	case isa.Ble:
		return m.ccZ || (m.ccN != m.ccV)
	case isa.Bgu:
		return !(m.ccC || m.ccZ)
	case isa.Bgeu:
		return !m.ccC
	case isa.Blu:
		return m.ccC
	case isa.Bleu:
		return m.ccC || m.ccZ
	}
	return false
}

// access performs the memory reference of d at effective address addr
// and returns the extra stall cycles.
func (m *Machine) access(d *isa.Decoded, pc, addr uint64) (uint64, error) {
	if d.Class != isa.ClPrefetch && addr&uint64(d.MemSize-1) != 0 {
		return 0, &Trap{Kind: TrapMisaligned, PC: pc, Addr: addr}
	}
	seg, pageSize := m.segment(addr)
	if seg == SegNone {
		if d.Class == isa.ClPrefetch {
			return 0, nil // prefetches never fault
		}
		return 0, &Trap{Kind: TrapSegv, PC: pc, Addr: addr}
	}

	var stall uint64
	if !m.DTLB.Lookup(addr&^(pageSize-1), pageSize) {
		m.stats.DTLBMisses++
		stall += tlb.MissPenaltyCycles
		m.count(hwc.EvDTLBMiss, 1, pc, addr, true)
	}

	// A D$ hit generates no counter events and no stall for loads, stores
	// and prefetches alike, so the MRU fast path can absorb it without
	// entering the hierarchy (the state updates are exactly Access's).
	isStore := d.Class.IsStore()
	if m.Hier.D.HitMRU(addr, isStore) {
		if isStore {
			m.stats.Stores++
		} else if d.Class != isa.ClPrefetch {
			m.stats.Loads++
		}
	} else {
		// One Result covers all three access kinds: stores never report
		// read misses and prefetches never report stall, so the
		// unconditional checks below stay exact without copying fields
		// through a second struct.
		var res cache.Result
		switch {
		case d.Class.IsLoad():
			m.stats.Loads++
			res = m.Hier.Load(addr)
		case isStore:
			m.stats.Stores++
			res = m.Hier.Store(addr)
		default: // prefetch
			res = m.Hier.Prefetch(addr)
		}
		if res.DCRdMiss {
			m.stats.DCRdMisses++
			m.count(hwc.EvDCRdMiss, 1, pc, addr, true)
		}
		if res.ECRef {
			m.stats.ECRefs++
			m.count(hwc.EvECRef, 1, pc, addr, true)
		}
		if res.ECRdMiss {
			m.stats.ECRdMisses++
			m.count(hwc.EvECRdMiss, 1, pc, addr, true)
		}
		if res.Stall > 0 {
			m.stats.ECStallCycles += uint64(res.Stall)
			m.count(hwc.EvECStall, uint64(res.Stall), pc, addr, true)
		}
		stall += uint64(res.Stall)
	}

	// Perform the architectural access.
	switch d.Class {
	case isa.ClLdB:
		m.wreg(d.Rd, int64(int8(m.Mem.Read8(addr))))
	case isa.ClLdUB:
		m.wreg(d.Rd, int64(m.Mem.Read8(addr)))
	case isa.ClLdW:
		m.wreg(d.Rd, int64(int32(m.Mem.Read32(addr))))
	case isa.ClLdX:
		m.wreg(d.Rd, int64(m.Mem.Read64(addr)))
	case isa.ClStB:
		m.Mem.Write8(addr, uint8(m.Regs[d.Rd]))
	case isa.ClStW:
		m.Mem.Write32(addr, uint32(m.Regs[d.Rd]))
	case isa.ClStX:
		m.Mem.Write64(addr, uint64(m.Regs[d.Rd]))
	}
	return stall, nil
}

// count feeds n events into whichever PIC registers are armed for ev, and
// schedules overflow signal delivery with per-event skid. The armed-event
// mask makes the common case — no counter interested — a single load and
// branch instead of a scan of both registers.
func (m *Machine) count(ev hwc.Event, n uint64, trigPC, ea uint64, hasEA bool) {
	if mask := m.armed[ev]; mask != 0 {
		m.countArmed(mask, ev, n, trigPC, ea, hasEA)
	}
}

func (m *Machine) countArmed(mask uint8, ev hwc.Event, n uint64, trigPC, ea uint64, hasEA bool) {
	if mask&1 != 0 {
		m.countOn(0, ev, n, trigPC, ea, hasEA)
	}
	if mask&2 != 0 {
		m.countOn(1, ev, n, trigPC, ea, hasEA)
	}
}

func (m *Machine) countOn(pic int, ev hwc.Event, n uint64, trigPC, ea uint64, hasEA bool) {
	overflows := m.counters[pic].Add(n)
	for i := 0; i < overflows; i++ {
		m.pending = append(m.pending, pendingSig{
			remaining: m.skid.Instrs(ev),
			pic:       pic, ev: ev, trigPC: trigPC, ea: ea, hasEA: hasEA,
		})
	}
}

// deliverPending ages pending overflow signals and fires those whose skid
// has elapsed. Delivered state (PC, registers, callstack) is the live
// machine state at delivery time. It fills the machine's one event record
// and callstack scratch buffer — see OverflowEvent — keeping delivery
// allocation-free.
func (m *Machine) deliverPending() {
	kept := m.pending[:0]
	for _, p := range m.pending {
		p.remaining--
		if p.remaining > 0 {
			kept = append(kept, p)
			continue
		}
		if m.OnOverflow != nil {
			m.ovf = OverflowEvent{
				PIC: p.pic, Event: p.ev,
				DeliveredPC: m.PC, Regs: m.Regs, Callstack: m.callstackScratch(), Cycles: m.stats.Cycles,
				TruePC: p.trigPC, TrueEA: p.ea, TrueHasEA: p.hasEA,
			}
			m.OnOverflow(&m.ovf)
		}
	}
	m.pending = kept
}

// callstackScratch snapshots the shadow call stack into a reusable
// buffer. The result is only valid until the next snapshot; event
// callbacks must copy it to retain it.
func (m *Machine) callstackScratch() []uint64 {
	m.csScratch = append(m.csScratch[:0], m.callstack...)
	return m.csScratch
}
