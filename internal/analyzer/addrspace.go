package analyzer

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"dsprof/internal/dwarf"
	"dsprof/internal/machine"
)

// ErrNoAllocations reports that a struct type exists in the debug tables
// but no heap allocation of the profiled run can hold instances of it —
// e.g. a declared-but-never-allocated type. Instance-level analyses
// return it (wrapped, with context) instead of silently empty results.
var ErrNoAllocations = errors.New("no heap allocations hold it")

// Address-space analyses from the paper's future work (§4): "Event data
// addresses can be further analyzed by corresponding machine entities,
// such as the memory segment ... and broken down by page for those
// segments. Alternatively, addresses can be aggregated by corresponding
// cache line", and "translating the effective addresses into structure
// object instances, and aggregating data by instance".

// SegRow is per-segment metric aggregation.
type SegRow struct {
	Seg machine.SegmentID
	M   Metrics
}

// segOf classifies an effective address statically. The heap extent is
// approximated by the recorded allocations.
func (a *Analyzer) segOf(ea uint64) machine.SegmentID {
	switch {
	case ea >= machine.TextBase && ea < machine.DataBase:
		return machine.SegText
	case ea >= machine.DataBase && ea < machine.HeapBase:
		return machine.SegData
	case ea >= machine.HeapBase && ea < machine.StackTop-(64<<20):
		return machine.SegHeap
	case ea < machine.StackTop:
		return machine.SegStack
	}
	return machine.SegNone
}

// Segments aggregates events with effective addresses by segment.
func (a *Analyzer) Segments() []SegRow {
	agg := make(map[machine.SegmentID]*Metrics)
	for _, ae := range a.eaEvents {
		var m Metrics
		m.Events[ae.Event] = 1
		bumpMap(agg, a.segOf(ae.EA), &m)
	}
	rows := make([]SegRow, 0, len(agg))
	for seg, m := range agg {
		rows = append(rows, SegRow{Seg: seg, M: *m})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Seg < rows[j].Seg })
	return rows
}

// AddrRow aggregates metrics on an address-aligned bucket (page or cache
// line).
type AddrRow struct {
	Base uint64
	M    Metrics
}

// aggregateAligned buckets EA-carrying events by alignment.
func (a *Analyzer) aggregateAligned(align uint64, s SortBy, n int) []AddrRow {
	agg := make(map[uint64]*Metrics)
	for _, ae := range a.eaEvents {
		var m Metrics
		m.Events[ae.Event] = 1
		bumpMap(agg, ae.EA&^(align-1), &m)
	}
	rows := make([]AddrRow, 0, len(agg))
	for base, m := range agg {
		rows = append(rows, AddrRow{Base: base, M: *m})
	}
	sort.SliceStable(rows, func(i, j int) bool {
		wi, wj := a.weight(&rows[i].M, s), a.weight(&rows[j].M, s)
		if wi != wj {
			return wi > wj
		}
		return rows[i].Base < rows[j].Base
	})
	if n > 0 && len(rows) > n {
		rows = rows[:n]
	}
	return rows
}

// Pages aggregates events by memory page (using the heap page size of the
// run) and returns the top n by the sort metric.
func (a *Analyzer) Pages(s SortBy, n int) []AddrRow {
	ps := a.Exps[0].Meta.HeapPageSize
	if ps == 0 {
		ps = 8192
	}
	return a.aggregateAligned(ps, s, n)
}

// CacheLines aggregates events by E$ line and returns the top n.
func (a *Analyzer) CacheLines(s SortBy, n int) []AddrRow {
	line := uint64(a.Exps[0].Meta.ECacheLine)
	if line == 0 {
		line = 512
	}
	return a.aggregateAligned(line, s, n)
}

// AddressSpaceReport renders the segment/page/cache-line breakdown.
func (a *Analyzer) AddressSpaceReport(w io.Writer, s SortBy, topN int) {
	fmt.Fprintf(w, "Events with recovered effective addresses: %d\n\n", len(a.eaEvents))
	fmt.Fprintf(w, "By segment:\n")
	a.renderHeader(w)
	for _, r := range a.Segments() {
		a.renderMetrics(w, &r.M)
		fmt.Fprintf(w, "%v\n", r.Seg)
	}
	fmt.Fprintf(w, "\nTop %d pages:\n", topN)
	a.renderHeader(w)
	for _, r := range a.Pages(s, topN) {
		a.renderMetrics(w, &r.M)
		fmt.Fprintf(w, "page 0x%08x\n", r.Base)
	}
	fmt.Fprintf(w, "\nTop %d E$ lines:\n", topN)
	a.renderHeader(w)
	for _, r := range a.CacheLines(s, topN) {
		a.renderMetrics(w, &r.M)
		fmt.Fprintf(w, "line 0x%08x\n", r.Base)
	}
}

// --- object instances (future work: per-instance aggregation) ---

// InstanceRow aggregates the events of one object instance (an element of
// an allocation interpreted as an array of the struct type).
type InstanceRow struct {
	AllocSeq int    // which allocation
	Index    int64  // element index within the allocation
	Addr     uint64 // element base address
	Split    bool   // element straddles an E$ line boundary
	M        Metrics
}

// Instances maps EA-carrying events attributed to the struct type onto
// object instances inside heap allocations, returning the top n by the
// sort metric.
func (a *Analyzer) Instances(structName string, s SortBy, n int) ([]InstanceRow, error) {
	id, ty := a.Tab.TypeByName(structName)
	if ty == nil || ty.Kind != dwarf.KindStruct || ty.Size <= 0 {
		return nil, fmt.Errorf("analyzer: no struct type %q", structName)
	}
	allocs := a.Exps[0].Allocs
	matching := 0
	for _, al := range allocs {
		if al.Size%uint64(ty.Size) == 0 {
			matching++
		}
	}
	if matching == 0 {
		return nil, fmt.Errorf("analyzer: struct %q (%d bytes): %w (no allocation size is a multiple of the struct size)",
			structName, ty.Size, ErrNoAllocations)
	}
	type ikey struct {
		seq int
		idx int64
	}
	agg := make(map[ikey]*Metrics)
	for _, ae := range a.eaEvents {
		if ae.Obj.Kind != OKStruct || ae.Obj.Type != id {
			continue
		}
		ai := findAlloc(allocs, ae.EA)
		if ai < 0 {
			continue
		}
		idx := int64(ae.EA-allocs[ai].Addr) / ty.Size
		var m Metrics
		m.Events[ae.Event] = 1
		bumpMap(agg, ikey{allocs[ai].Seq, idx}, &m)
	}
	line := uint64(a.Exps[0].Meta.ECacheLine)
	if line == 0 {
		line = 512
	}
	rows := make([]InstanceRow, 0, len(agg))
	for k, m := range agg {
		addr := allocs[allocIdxBySeq(allocs, k.seq)].Addr + uint64(k.idx)*uint64(ty.Size)
		rows = append(rows, InstanceRow{
			AllocSeq: k.seq,
			Index:    k.idx,
			Addr:     addr,
			Split:    addr/line != (addr+uint64(ty.Size)-1)/line,
			M:        *m,
		})
	}
	sort.SliceStable(rows, func(i, j int) bool {
		wi, wj := a.weight(&rows[i].M, s), a.weight(&rows[j].M, s)
		if wi != wj {
			return wi > wj
		}
		return rows[i].Addr < rows[j].Addr
	})
	if n > 0 && len(rows) > n {
		rows = rows[:n]
	}
	return rows, nil
}

// findAlloc locates the allocation containing ea (allocations are
// recorded in address order for the bump allocator; binary search).
func findAlloc(allocs []machine.Alloc, ea uint64) int {
	i := sort.Search(len(allocs), func(i int) bool { return allocs[i].Addr+allocs[i].Size > ea })
	if i < len(allocs) && allocs[i].Addr <= ea {
		return i
	}
	return -1
}

func allocIdxBySeq(allocs []machine.Alloc, seq int) int {
	for i := range allocs {
		if allocs[i].Seq == seq {
			return i
		}
	}
	return 0
}

// SplitStats reports how many instances of the struct type, laid out
// contiguously in the heap allocations that hold them, straddle an E$
// line boundary — the paper's "28% of these 120-byte data objects end up
// split this way" analysis (§3.2.5).
type SplitStats struct {
	Type      string
	Size      int64
	LineBytes uint64
	Total     int64
	Split     int64
}

// Fraction returns the split fraction.
func (s SplitStats) Fraction() float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.Split) / float64(s.Total)
}

// SplitObjects analyzes object splitting for the named struct across all
// heap allocations that look like arrays of it (size a multiple of the
// struct size, at least 4 elements).
func (a *Analyzer) SplitObjects(structName string) (SplitStats, error) {
	_, ty := a.Tab.TypeByName(structName)
	if ty == nil || ty.Kind != dwarf.KindStruct || ty.Size <= 0 {
		return SplitStats{}, fmt.Errorf("analyzer: no struct type %q", structName)
	}
	line := uint64(a.Exps[0].Meta.ECacheLine)
	if line == 0 {
		line = 512
	}
	st := SplitStats{Type: structName, Size: ty.Size, LineBytes: line}
	for _, al := range a.Exps[0].Allocs {
		if al.Size%uint64(ty.Size) != 0 || al.Size < 4*uint64(ty.Size) {
			continue
		}
		n := int64(al.Size) / ty.Size
		for i := int64(0); i < n; i++ {
			addr := al.Addr + uint64(i*ty.Size)
			st.Total++
			if addr/line != (addr+uint64(ty.Size)-1)/line {
				st.Split++
			}
		}
	}
	if st.Total == 0 {
		return st, fmt.Errorf("analyzer: struct %q (%d bytes): %w (no array allocations of at least 4 elements)",
			structName, ty.Size, ErrNoAllocations)
	}
	return st, nil
}

// EffectivenessReport renders per-metric backtracking effectiveness
// (paper §3.2.5: ">99% effective for E$ Stall Cycles ... ~94% for E$
// References").
func (a *Analyzer) EffectivenessReport(w io.Writer) {
	fmt.Fprintf(w, "Apropos backtracking effectiveness (100%% - (Unresolvable) - (Unascertainable)):\n")
	for _, ev := range a.Columns() {
		if !ev.MemoryRelated() {
			continue
		}
		fmt.Fprintf(w, "  %-12s %6.1f%%  (%d events)\n", ev.Title(), 100*a.Effectiveness(ev), a.totalPerEv[ev])
	}
}

// UnknownBreakdown returns the metrics of each <Unknown> subcategory, in
// a stable order.
func (a *Analyzer) UnknownBreakdown() []ObjRow {
	var rows []ObjRow
	for _, k := range unknownKinds {
		if m := a.byObj[ObjKey{Kind: k}]; m != nil {
			rows = append(rows, ObjRow{Key: ObjKey{Kind: k}, Name: k.String(), M: *m})
		}
	}
	return rows
}
