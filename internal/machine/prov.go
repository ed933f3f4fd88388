package machine

// prov.go is the object-provenance side channel of the VM allocator:
// when a collector installs the OnProv hook, every heap block handed out
// by malloc/calloc is tagged — host-side only, in a shadow map keyed by
// simulated address — with the PC of the allocating syscall instruction,
// the call-site context from the shadow call stack, the allocation
// sequence number, and birth/death cycle stamps. Nothing about the
// simulated machine changes: addresses, costs, counter evolution and the
// fast-path batching contract are untouched, and with the hook nil the
// syscall handlers do zero extra work.
//
// malloc is compiled as an inline Syscall instruction in the calling
// function (there is no wrapper function in the runtime), so the
// allocation site is the syscall's own PC and the shadow-stack top is
// the caller of the function performing the allocation.

import "sort"

// ProvRecord is one heap block's provenance: where it was allocated,
// which instance it is, and when it lived. Records for freed blocks are
// emitted at free time with the death stamp set; blocks still live at
// end of run are emitted by DrainProv with Freed false and Death zero.
type ProvRecord struct {
	Site   uint64 // PC of the allocating malloc/calloc syscall instruction
	Caller uint64 // innermost call-site PC on the shadow stack (0 at top level)
	Addr   uint64 // simulated block address
	Size   uint64 // requested size in bytes (before allocator rounding)
	Seq    int    // allocation sequence number, matching Alloc.Seq
	Birth  uint64 // machine cycles at allocation
	Death  uint64 // machine cycles at free (0 if never freed)
	Freed  bool
}

// recordProv opens a provenance record for a fresh allocation. Called
// from the malloc/calloc syscall handlers, which only Step executes, so
// the stamps are identical under Run and the reference stepper.
func (m *Machine) recordProv(addr, size uint64, seq int) {
	if m.OnProv == nil {
		return
	}
	var caller uint64
	if n := len(m.callstack); n > 0 {
		caller = m.callstack[n-1]
	}
	if m.provLive == nil {
		m.provLive = make(map[uint64]ProvRecord)
	}
	m.provLive[addr] = ProvRecord{
		Site:   m.PC,
		Caller: caller,
		Addr:   addr,
		Size:   size,
		Seq:    seq,
		Birth:  m.stats.Cycles,
	}
}

// completeProv closes the provenance record for a freed block and emits
// it. free(NULL), double frees and frees of unknown addresses find no
// open record and emit nothing, mirroring the allocator's tolerance.
func (m *Machine) completeProv(addr uint64) {
	if m.OnProv == nil || m.provLive == nil {
		return
	}
	rec, ok := m.provLive[addr]
	if !ok {
		return
	}
	delete(m.provLive, addr)
	rec.Death = m.stats.Cycles
	rec.Freed = true
	m.OnProv(rec)
}

// DrainProv emits every provenance record still open (blocks live at end
// of run), in allocation-sequence order, and clears the shadow map. The
// collector calls it once after the run; the overall record stream is
// deterministic: frees in execution order, then survivors by sequence.
func (m *Machine) DrainProv() {
	if m.OnProv == nil || len(m.provLive) == 0 {
		return
	}
	recs := make([]ProvRecord, 0, len(m.provLive))
	for _, r := range m.provLive {
		recs = append(recs, r)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Seq < recs[j].Seq })
	for _, r := range recs {
		m.OnProv(r)
	}
	m.provLive = nil
}
