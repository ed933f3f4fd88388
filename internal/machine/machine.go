package machine

import (
	"bytes"
	"fmt"

	"dsprof/internal/cache"
	"dsprof/internal/hwc"
	"dsprof/internal/isa"
	"dsprof/internal/mem"
	"dsprof/internal/tlb"
)

// OverflowEvent is delivered to the profiling layer when an armed counter
// overflows. Mirroring real hardware, the delivered PC is the address of
// the *next instruction to issue* at trap-delivery time — the counter has
// skidded an unknown number of instructions past the trigger. The register
// snapshot is the live register file at delivery.
//
// The record is the machine's own and is refilled for every delivery, so
// delivery allocates nothing: it, its Regs and its Callstack are valid
// only for the duration of the callback, and handlers that retain any of
// them must copy the value (not the pointer).
//
// TruePC/TrueEA are a ground-truth side channel recorded by the simulator
// for test validation only; the collector and analyzer never read them
// (the paper's hardware does not provide them, which is the entire reason
// apropos backtracking exists).
type OverflowEvent struct {
	PIC         int
	Event       hwc.Event
	DeliveredPC uint64
	Regs        [isa.NumRegs]int64
	// Callstack holds the call-site PCs, outermost first. It aliases a
	// reusable scratch buffer, like the record itself.
	Callstack []uint64
	Cycles    uint64 // machine cycle count at delivery

	TruePC    uint64 // ground truth: the triggering instruction
	TrueEA    uint64 // ground truth: its effective address
	TrueHasEA bool
}

// ClockTick is delivered to the profiling layer on each clock-profiling
// tick. Like real clock interrupts, the PC is the next instruction to
// issue, and no backtracking correction is possible. Like OverflowEvent,
// the record and its Callstack are the machine's, refilled for every
// tick and valid only during the callback (copy the value to retain it).
type ClockTick struct {
	PC        uint64
	Callstack []uint64
	Cycles    uint64
}

// Alloc records one heap allocation, for the analyzer's address-space and
// per-instance reports.
type Alloc struct {
	Addr uint64
	Size uint64
	Seq  int
}

// Stats are cumulative execution statistics.
type Stats struct {
	Instrs        uint64
	Cycles        uint64
	ICMisses      uint64
	SyscallCycles uint64
	Loads         uint64
	Stores        uint64
	DCRdMisses    uint64
	ECRefs        uint64
	ECRdMisses    uint64
	ECStallCycles uint64
	DTLBMisses    uint64
	ClockTicks    uint64
}

// pendingSig is an overflow signal waiting out its skid. It carries only
// what is known at the trigger; deliverPending adds the delivery state.
type pendingSig struct {
	remaining int // instructions left to retire before delivery
	pic       int
	ev        hwc.Event
	trigPC    uint64
	ea        uint64
	hasEA     bool
}

// Machine is one simulated processor plus its process address space.
type Machine struct {
	Cfg Config

	// Architectural state.
	Regs [isa.NumRegs]int64
	PC   uint64
	NPC  uint64
	ccN  bool // negative
	ccZ  bool // zero
	ccV  bool // overflow
	ccC  bool // carry

	Mem  *mem.Memory
	Hier *cache.Hierarchy
	IC   *cache.Cache
	DTLB *tlb.TLB

	// lastFetchLine caches the current instruction-fetch line: sequential
	// fetches within one I$ line cost nothing and are not re-probed.
	lastFetchLine uint64

	// dec is the predecoded text segment, one entry per instruction, with
	// the base pipeline cost fused in. Step and the translator execute
	// only from this array; the raw text is not retained.
	dec      []isa.Decoded
	textSize uint64 // textEnd - TextBase, for the one-compare fetch bound
	textEnd  uint64
	dataEnd  uint64
	stackLow uint64

	// icLineShift is log2 of the I$ line size, so the fetch-line check is
	// a shift instead of a divide.
	icLineShift uint

	// armed[ev] is a bitmask of PIC registers (bit 0 = PIC0, bit 1 = PIC1)
	// currently counting ev. The hot-path count() is a load and branch on
	// it; events nobody is counting cost nothing.
	armed [hwc.NumEvents]uint8
	// stepFallbacks counts the instructions runBatch retired through its
	// reference-Step fallbacks. Every other instruction Run retires is
	// translated, so stepFallbacks/Instrs is the untranslated share.
	stepFallbacks uint64

	// trans is the translation cache, built lazily and dropped whole on
	// LoadProgram (its threaded-code blocks hold register pointers and
	// successor links valid only for this program's decode).
	trans *transState

	heap *allocator

	input   []int64
	inPos   int
	outLong []int64
	outText bytes.Buffer

	// Profiling hooks. Each call receives the machine's reused record
	// (ovf or tick below); see OverflowEvent and ClockTick.
	OnOverflow      func(*OverflowEvent)
	OnClockTick     func(*ClockTick)
	ClockTickCycles uint64
	// OnProv, when set, receives one ProvRecord per heap block: at free
	// time for freed blocks, from DrainProv for blocks live at halt.
	// Nil (the default) keeps the allocator syscalls provenance-free.
	OnProv func(ProvRecord)

	counters [2]*hwc.Counter
	skid     *hwc.Skid
	pending  []pendingSig
	nextTick uint64
	ovf      OverflowEvent
	tick     ClockTick

	callstack []uint64
	// csScratch is the reusable buffer callstackScratch snapshots into,
	// keeping event delivery allocation-free on the hot path.
	csScratch []uint64
	allocs    []Alloc
	// provLive holds the open provenance record for each live heap block
	// while OnProv is set; see prov.go.
	provLive map[uint64]ProvRecord

	stats  Stats
	halted bool
}

// New builds a machine from cfg. Load a program with LoadProgram before
// running.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	h, err := cache.NewHierarchy(cfg.DCache, cfg.ECache, cfg.Costs)
	if err != nil {
		return nil, err
	}
	ic, err := cache.New(cfg.ICache)
	if err != nil {
		return nil, err
	}
	t, err := tlb.New(cfg.TLB)
	if err != nil {
		return nil, err
	}
	var icShift uint
	for 1<<icShift != cfg.ICache.LineBytes {
		icShift++
	}
	m := &Machine{
		Cfg:           cfg,
		Mem:           mem.New(),
		Hier:          h,
		IC:            ic,
		DTLB:          t,
		lastFetchLine: ^uint64(0),
		icLineShift:   icShift,
		skid:          hwc.NewSkid(cfg.SkidSeed),
		stackLow:      StackTop - cfg.StackBytes,
	}
	m.heap = newAllocator(HeapBase, HeapBase+cfg.HeapBytes)
	return m, nil
}

// LoadProgram installs the text segment and initialized data, and resets
// architectural state with the PC at entry (an absolute address within
// text).
func (m *Machine) LoadProgram(text []isa.Instr, data []byte, entry uint64) error {
	if len(text) == 0 {
		return fmt.Errorf("machine: empty text")
	}
	m.textSize = uint64(len(text)) * isa.InstrBytes
	m.textEnd = TextBase + m.textSize
	m.dec = isa.PredecodeAll(text, TextBase)
	// Drop the translation cache with the old decode: translated blocks
	// bake in register pointers, immediates, and successor-block links of
	// the program they were compiled from. (Stores never invalidate
	// translations — execution reads only from dec, never from data
	// memory, on every engine path.)
	m.trans = nil
	for i := range m.dec {
		m.dec[i].Cost = baseCost[m.dec[i].Op]
	}
	if entry < TextBase || entry >= m.textEnd || entry%isa.InstrBytes != 0 {
		return fmt.Errorf("machine: entry %#x outside text [%#x,%#x)", entry, TextBase, m.textEnd)
	}
	m.Mem.WriteBytes(DataBase, data)
	m.dataEnd = DataBase + uint64(len(data))
	for i := range m.Regs {
		m.Regs[i] = 0
	}
	m.Regs[isa.SP] = int64(StackTop - 64)
	m.Regs[isa.FP] = int64(StackTop - 64)
	m.PC = entry
	m.NPC = entry + isa.InstrBytes
	m.halted = false
	return nil
}

// SetInput provides the program's input vector, consumed by SysReadLong.
func (m *Machine) SetInput(in []int64) { m.input = in; m.inPos = 0 }

// OutputLongs returns the values the program emitted with SysWriteLong.
func (m *Machine) OutputLongs() []int64 { return m.outLong }

// OutputText returns the text the program emitted with SysPuts/SysPutc.
func (m *Machine) OutputText() string { return m.outText.String() }

// Stats returns cumulative execution statistics.
func (m *Machine) Stats() Stats { return m.stats }

// Halted reports whether the program has executed Halt. Callers that
// drive the machine with Step (instead of Run) use it as the loop
// condition, e.g. to interleave cancellation checks.
func (m *Machine) Halted() bool { return m.halted }

// Allocs returns the heap allocation log.
func (m *Machine) Allocs() []Alloc { return m.allocs }

// Seconds converts a cycle count to simulated seconds.
func (m *Machine) Seconds(cycles uint64) float64 {
	return float64(cycles) / float64(m.Cfg.ClockHz)
}

// ArmCounter programs PIC register pic (0 or 1) to count ev and overflow
// every interval counts. Mirrors the two-counter limit of the hardware.
func (m *Machine) ArmCounter(pic int, ev hwc.Event, interval uint64) error {
	if pic < 0 || pic > 1 {
		return fmt.Errorf("machine: PIC %d out of range (two counter registers)", pic)
	}
	if ev == hwc.EvNone || ev >= hwc.NumEvents {
		return fmt.Errorf("machine: invalid event")
	}
	if interval == 0 {
		return fmt.Errorf("machine: zero overflow interval")
	}
	if other := m.counters[1-pic]; other != nil && other.Event == ev {
		return fmt.Errorf("machine: event %v already armed on the other register", ev)
	}
	m.counters[pic] = hwc.NewCounter(ev, interval)
	m.rebuildArmed()
	return nil
}

// rebuildArmed recomputes the per-event armed-PIC bitmasks from the
// counter registers. Any event combination runs on both engines:
// translated code counts memory, I$, and TLB events exactly where Step
// does (see runBatch's horizons and the invariants in translate.go).
func (m *Machine) rebuildArmed() {
	m.armed = [hwc.NumEvents]uint8{}
	for pic, c := range m.counters {
		if c != nil {
			m.armed[c.Event] |= 1 << pic
		}
	}
}

// CounterTotal returns the cumulative count of the armed counter.
func (m *Machine) CounterTotal(pic int) uint64 {
	if pic < 0 || pic > 1 || m.counters[pic] == nil {
		return 0
	}
	return m.counters[pic].Total
}

// Callstack returns a copy of the current shadow call stack (call-site
// PCs, outermost first).
func (m *Machine) Callstack() []uint64 {
	cs := make([]uint64, len(m.callstack))
	copy(cs, m.callstack)
	return cs
}

// segment classifies an address and returns its segment's page size.
func (m *Machine) segment(addr uint64) (SegmentID, uint64) {
	switch {
	case addr >= HeapBase && addr < m.heap.brk:
		return SegHeap, m.Cfg.HeapPageSize
	case addr >= m.stackLow && addr < StackTop:
		return SegStack, m.Cfg.StackPageSize
	case addr >= DataBase && addr < m.dataEnd:
		return SegData, m.Cfg.DataPageSize
	case addr >= TextBase && addr < m.textEnd:
		return SegText, m.Cfg.TextPageSize
	}
	return SegNone, 0
}

// SegmentOf reports the segment containing addr (for analysis tools).
func (m *Machine) SegmentOf(addr uint64) SegmentID {
	s, _ := m.segment(addr)
	return s
}
