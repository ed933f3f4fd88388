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

// maxBaseCost is the largest per-opcode base cost, for the event-horizon
// bound on cycle-counting overflow.
var maxBaseCost = func() uint64 {
	var m uint8
	for _, c := range baseCost {
		if c > m {
			m = c
		}
	}
	return uint64(m)
}()

// batchTarget caps one fast inner-loop batch. It only bounds how much
// work runs between horizon recomputations; correctness never depends on
// it.
const batchTarget = 1 << 20

// Run executes instructions until the program halts or a trap occurs.
//
// Run takes the fast path: between observable events (pending overflow
// delivery, clock ticks, armed-counter overflows, the instruction
// budget) it executes a tight inner loop with no per-instruction checks,
// accumulating instruction and cycle counts locally and flushing them at
// the event horizon. The produced execution — every counter overflow,
// its skid draw, every delivered event and clock tick — is identical to
// driving the machine with Step.
func (m *Machine) Run() error {
	for !m.halted {
		if _, err := m.runBatch(batchTarget); err != nil {
			return err
		}
	}
	return nil
}

// RunFor executes at most budget instructions on the fast path, stopping
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

// runBatch executes up to limit instructions: one horizon computation
// followed by a fast inner loop, or a single reference Step when an
// observable event is due. It returns how many instructions were
// retired (counting a trapping instruction).
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
		if rem := m.Cfg.MaxInstrs - m.stats.Instrs; rem < maxN {
			maxN = rem
		}
	}
	// Horizon of an armed instruction counter: Remaining()-1 instructions
	// are overflow-free, so the overflowing instruction is counted by a
	// single-instruction Step and the trigger attribution is exact.
	if mask := m.armed[hwc.EvInstrs]; mask != 0 {
		r := m.counters[picOf(mask)].Remaining()
		if r <= 1 {
			return m.stepFallback()
		}
		if r-1 < maxN {
			maxN = r - 1
		}
	}
	// Cycle horizon: the inner loop stops before the machine cycle count
	// reaches stop. Ticks may overshoot by one instruction's cost (the
	// reference stepper fires them at the top of the next step); an armed
	// cycle counter may not, so its bound backs off by the worst-case
	// non-syscall instruction cost and syscalls break the loop.
	stop := ^uint64(0)
	if m.ClockTickCycles > 0 {
		stop = m.nextTick
	}
	breakOnSyscall := false
	if mask := m.armed[hwc.EvCycles]; mask != 0 {
		r := m.counters[picOf(mask)].Remaining()
		if r <= m.maxInstrCost {
			return m.stepFallback()
		}
		if s := m.stats.Cycles + r - m.maxInstrCost; s < stop {
			stop = s
		}
		breakOnSyscall = true
	}
	var n uint64
	var err error
	if bn, maxMem, bstop, ok := m.armedBudget(maxN, stop); ok {
		m.evBatch = true
		n, err = m.runMixed(bn, maxMem, bstop, breakOnSyscall)
		m.evFlush()
	} else {
		// No budget: runInner counts armed events inline at their exact
		// instruction and stops on the first overflow, exactly as Step.
		n, err = m.runInner(maxN, stop, breakOnSyscall)
	}
	if n == 0 && err == nil && !m.halted {
		// The loop gave way immediately (syscall under a cycle-counter
		// horizon): retire one instruction on the reference path.
		return m.stepFallback()
	}
	return n, err
}

// stepFallback retires one instruction on the reference stepper for
// runBatch, counting it in stepFallbacks.
func (m *Machine) stepFallback() (uint64, error) {
	m.stepFallbacks++
	return 1, m.Step()
}

// armedBudget computes the horizons of a translated batch from the
// instruction and cycle horizons maxN and stop. ok is false whenever an
// armed counter is too close to overflow to cover even one worst-case
// instruction.
//
// Each armed memory/I$/TLB counter shrinks the horizon along the axis
// that bounds its event tightest. I$ misses fire at most once per
// instruction (every fetch probes the I$ once), so they bound the
// instruction horizon n. The per-access events — D$ read misses, E$
// references, E$ read misses, DTLB misses — fire at most once per data
// memory access, so they bound maxMem, the batch's memory-access budget
// (a translated block pre-counts its accesses; runMixed charges
// interpreter chunks one access per instruction). E$ stall cycles are a
// subset of the cycles the stalling instructions themselves retire, so
// an armed EvECStall counter tightens the cycle horizon exactly like an
// armed cycle counter — backed off by the worst-case instruction cost —
// rather than wasting 1/maxInstrCost of its headroom on every
// non-stalling instruction. Syscall service cycles never stall, so
// unlike EvCycles the bound needs no syscall break. Within these bounds
// no counter can overflow — not in a translated block, not in an
// interpreter chunk, not on a bail (a bailing access faults before
// touching TLB or cache; its fetch probe is covered by Headroom's
// reserved extra event) — so the whole batch counts armed events into
// evDelta and flushes once at the boundary.
func (m *Machine) armedBudget(maxN, stop uint64) (n, maxMem, bstop uint64, ok bool) {
	n, maxMem, bstop = maxN, ^uint64(0), stop
	for _, c := range m.counters {
		if c == nil {
			continue
		}
		switch c.Event {
		case hwc.EvInstrs, hwc.EvCycles:
			// Bounded by the instruction and cycle horizons already.
		case hwc.EvECStall:
			r := c.Remaining()
			if r <= m.maxInstrCost {
				return 0, 0, 0, false
			}
			if s := m.stats.Cycles + r - m.maxInstrCost; s < bstop {
				bstop = s
			}
		case hwc.EvICMiss:
			h, ok := c.Headroom(1)
			if !ok {
				return 0, 0, 0, false
			}
			n = min(n, h)
		default:
			h, ok := c.Headroom(1)
			if !ok {
				return 0, 0, 0, false
			}
			maxMem = min(maxMem, h)
		}
	}
	return n, maxMem, bstop, true
}

// picOf maps a one-bit armed mask to its PIC number.
func picOf(mask uint8) int {
	if mask&1 != 0 {
		return 0
	}
	return 1
}

// runInner is the fast inner loop: no pending, tick, or budget checks
// per instruction, just bounds established by the caller's horizon.
// Instruction and cycle event counts accumulate locally and flush in one
// Add at the boundary (the horizon guarantees the flush cannot overflow,
// so no skid draw is reordered). Memory, I$, and TLB events still count
// at their exact instruction through the armed-mask path, so their
// overflows — which break the loop via the pending check — land with
// exact trigger attribution and in reference order.
// The dispatch below duplicates exec1's per-class semantics with the hot
// architectural state — PC, NPC, cycle count, current fetch line — held in
// locals, saving a call and a machine-state round trip per instruction.
// Any change to exec1 must be mirrored here; the interpreter-only arms of
// TestFastPathEquivalence and FuzzBackendDifferential hold the two
// interpreters to byte-identical runs.
// The only inner-loop callee that observes state the locals shadow is
// doSyscall (trap PCs, the cycle-count service), so the syscall case
// flushes before the call.
func (m *Machine) runInner(maxN, stop uint64, breakOnSyscall bool) (uint64, error) {
	var (
		n      uint64
		lastPC uint64
		retErr error
	)
	pc, npc := m.PC, m.NPC
	cycles := m.stats.Cycles
	startCycles := cycles
	fetchLine := m.lastFetchLine
loop:
	for n < maxN && cycles < stop && len(m.pending) == 0 && !m.halted {
		off := pc - TextBase
		if off >= m.textSize || pc%isa.InstrBytes != 0 {
			retErr = &Trap{Kind: TrapBadPC, PC: pc}
			break
		}
		d := &m.dec[off/isa.InstrBytes]
		if breakOnSyscall && d.Class == isa.ClSyscall {
			break
		}
		cost := uint64(d.Cost)

		// Instruction fetch: probe the I$ only when leaving the current
		// fetch line (sequential fetches within a line are free).
		if line := pc >> m.icLineShift; line != fetchLine {
			fetchLine = line
			if hit, _ := m.IC.Access(pc, false, true); !hit {
				m.stats.ICMisses++
				cost += uint64(m.Cfg.ICMissStall)
				m.count(hwc.EvICMiss, 1, pc, 0, false)
			}
		}
		nextNPC := npc + isa.InstrBytes

		switch d.Class {
		case isa.ClNop:
			// nothing
		case isa.ClLdB, isa.ClLdUB, isa.ClLdW, isa.ClLdX,
			isa.ClStB, isa.ClStW, isa.ClStX, isa.ClPrefetch:
			addr := uint64(m.Regs[d.Rs1] + m.src2(d))
			extra, err := m.access(d, pc, addr)
			if err != nil {
				m.stats.Instrs++ // the trapping instruction still issued
				retErr = err
				break loop
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
				m.stats.Instrs++
				retErr = &Trap{Kind: TrapDivZero, PC: pc}
				break loop
			}
			m.wreg(d.Rd, m.Regs[d.Rs1]/b)
		case isa.ClRem:
			b := m.src2(d)
			if b == 0 {
				m.wreg(d.Rd, 0)
				m.stats.Instrs++
				retErr = &Trap{Kind: TrapDivZero, PC: pc}
				break loop
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
			m.PC, m.stats.Cycles = pc, cycles
			res, extra, err := m.doSyscall(m.src2(d))
			if err != nil {
				m.stats.Instrs++
				retErr = err
				break loop
			}
			m.wreg(isa.O0, res)
			cost += extra
			m.stats.SyscallCycles += extra
		case isa.ClHalt:
			m.halted = true
		}

		cycles += cost
		n++
		lastPC = pc
		pc, npc = npc, nextNPC
	}
	m.PC, m.NPC = pc, npc
	m.stats.Cycles = cycles
	m.lastFetchLine = fetchLine
	m.stats.Instrs += n
	if n > 0 {
		m.count(hwc.EvInstrs, n, lastPC, 0, false)
		m.count(hwc.EvCycles, cycles-startCycles, lastPC, 0, false)
	}
	return n, retErr
}

// Step executes one instruction, with every per-instruction check: it is
// the reference interpreter the fast path must be indistinguishable
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
				m.OnClockTick(&ClockTick{PC: m.PC, Callstack: m.callstackScratch(), Cycles: m.stats.Cycles})
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
// dispatch, cycle accounting and the PC/NPC advance. Only the reference
// stepper (Step) calls it; runInner mirrors its semantics with the hot
// state held in locals, and the equivalence tests named at runInner hold
// the two to byte-identical runs. On a trap the PC does
// not advance and no cycles are charged (matching the pre-decode
// stepper), though fetch side effects already taken (I$ state, the icm
// event) remain.
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
// branch instead of a scan of both registers. During a budgeted batch
// (evBatch) armed events accumulate in evDelta instead: the batch horizon
// proves none of them can overflow, so the deferred flush needs no
// trigger PC or effective address.
func (m *Machine) count(ev hwc.Event, n uint64, trigPC, ea uint64, hasEA bool) {
	if mask := m.armed[ev]; mask != 0 {
		if m.evBatch {
			m.evDelta[ev] += n
			return
		}
		m.countArmed(mask, ev, n, trigPC, ea, hasEA)
	}
}

// evFlush leaves batch-counting mode and feeds the accumulated per-event
// deltas to the armed counters. The runBatch budget guarantees no delta
// can reach a counter's overflow threshold — the reference execution
// cannot overflow within the batch's instruction span either — so these
// Adds never fire an overflow, draw a skid, or need attribution.
func (m *Machine) evFlush() {
	m.evBatch = false
	for pic, c := range m.counters {
		if c == nil {
			continue
		}
		if d := m.evDelta[c.Event]; d != 0 {
			m.evDelta[c.Event] = 0
			m.countOn(pic, c.Event, d, 0, 0, false)
		}
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
			ev: OverflowEvent{
				PIC:       pic,
				Event:     ev,
				TruePC:    trigPC,
				TrueEA:    ea,
				TrueHasEA: hasEA,
			},
		})
	}
}

// deliverPending ages pending overflow signals and fires those whose skid
// has elapsed. Delivered state (PC, registers, callstack) is the live
// machine state at delivery time. The callstack is a reusable scratch
// buffer — see OverflowEvent.Callstack — keeping delivery allocation-free.
func (m *Machine) deliverPending() {
	kept := m.pending[:0]
	for i := range m.pending {
		p := &m.pending[i]
		p.remaining--
		if p.remaining > 0 {
			kept = append(kept, *p)
			continue
		}
		if m.OnOverflow != nil {
			e := p.ev
			e.DeliveredPC = m.PC
			e.Regs = m.Regs
			e.Callstack = m.callstackScratch()
			e.Cycles = m.stats.Cycles
			m.OnOverflow(&e)
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
