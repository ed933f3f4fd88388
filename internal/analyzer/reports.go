package analyzer

import (
	"fmt"
	"io"
	"sort"

	"dsprof/internal/dwarf"
	"dsprof/internal/hwc"
)

// SortBy selects the metric that orders a report.
type SortBy struct {
	Clock bool
	Ev    hwc.Event
}

// ByUserCPU sorts by User CPU time (clock profile ticks).
var ByUserCPU = SortBy{Clock: true}

// ByEvent sorts by a hardware counter metric.
func ByEvent(ev hwc.Event) SortBy { return SortBy{Ev: ev} }

func (a *Analyzer) weight(m *Metrics, s SortBy) float64 {
	if s.Clock {
		return float64(m.Ticks)
	}
	return float64(m.Events[s.Ev])
}

// pct renders a percentage of a metric against the total.
func (a *Analyzer) pct(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// --- <Total> report (Figure 1) ---

// TotalReport renders the paper's Figure 1: the performance metrics of
// the artificial <Total> function.
func (a *Analyzer) TotalReport(w io.Writer) {
	for _, d := range a.Degraded {
		fmt.Fprintf(w, "WARNING: %s\n", d)
	}
	t := a.total
	fmt.Fprintf(w, "%-36s %12.3f secs.\n", "Exclusive Total LWP Time:", a.totalLWP)
	if a.HasClock() {
		fmt.Fprintf(w, "%-36s %12.3f secs.\n", "Exclusive User CPU Time:", a.TickSeconds(t.Ticks))
	}
	fmt.Fprintf(w, "%-36s %12.3f secs.\n", "Exclusive System CPU Time:", a.totalSys)
	for _, ev := range a.Columns() {
		n := t.Events[ev]
		if ev.CountsCycles() {
			fmt.Fprintf(w, "%-36s %12.3f secs.\n", "Exclusive "+ev.Title()+":", a.Seconds(ev, n))
			fmt.Fprintf(w, "%-36s %12d\n", "  count", a.Count(ev, n))
		} else {
			fmt.Fprintf(w, "%-36s %12d\n", "Exclusive "+ev.Title()+":", a.Count(ev, n))
		}
	}
	// Derived observations the paper calls out in §3.2.1.
	if a.HasEvent(hwc.EvECRdMiss) && a.HasEvent(hwc.EvECRef) {
		miss := a.Count(hwc.EvECRdMiss, t.Events[hwc.EvECRdMiss])
		refs := a.Count(hwc.EvECRef, t.Events[hwc.EvECRef])
		if refs > 0 {
			fmt.Fprintf(w, "%-36s %12.1f%%\n", "E$ Read Miss Rate:", 100*float64(miss)/float64(refs))
		}
	}
	if a.HasEvent(hwc.EvDTLBMiss) {
		misses := a.Count(hwc.EvDTLBMiss, t.Events[hwc.EvDTLBMiss])
		cost := float64(misses*100) / float64(a.ClockHz)
		fmt.Fprintf(w, "%-36s %12.3f secs.\n", "Est. DTLB Miss Cost (100 cyc/miss):", cost)
	}
}

// --- function list (Figure 2) ---

// FuncRow is one row of the function list.
type FuncRow struct {
	Name string
	M    Metrics
}

// Functions returns the function list sorted by the given metric,
// descending, with <Total> first.
func (a *Analyzer) Functions(s SortBy) []FuncRow {
	rows := make([]FuncRow, 0, len(a.byFunc)+1)
	rows = append(rows, FuncRow{Name: "<Total>", M: a.total})
	for name, m := range a.byFunc {
		rows = append(rows, FuncRow{Name: name, M: *m})
	}
	sort.SliceStable(rows[1:], func(i, j int) bool {
		wi, wj := a.weight(&rows[i+1].M, s), a.weight(&rows[j+1].M, s)
		if wi != wj {
			return wi > wj
		}
		return rows[i+1].Name < rows[j+1].Name
	})
	return rows
}

// Columns returns the metric columns present in this analysis, in the
// paper's order: the hardware-counter events that were collected.
func (a *Analyzer) Columns() []hwc.Event {
	var cols []hwc.Event
	for _, ev := range []hwc.Event{hwc.EvECStall, hwc.EvECRdMiss, hwc.EvECRef, hwc.EvDCRdMiss, hwc.EvDTLBMiss, hwc.EvCycles, hwc.EvInstrs} {
		if a.HasEvent(ev) {
			cols = append(cols, ev)
		}
	}
	return cols
}

// renderHeader prints the metric column headers.
func (a *Analyzer) renderHeader(w io.Writer) {
	if a.HasClock() {
		fmt.Fprintf(w, "%9s %6s  ", "User CPU", "")
	}
	for _, ev := range a.Columns() {
		if ev.CountsCycles() {
			fmt.Fprintf(w, "%9s %6s  ", ev.Short(), "")
		} else {
			fmt.Fprintf(w, "%7s  ", ev.Short())
		}
	}
	fmt.Fprintf(w, "Name\n")
	if a.HasClock() {
		fmt.Fprintf(w, "%9s %6s  ", "sec.", "%")
	}
	for _, ev := range a.Columns() {
		if ev.CountsCycles() {
			fmt.Fprintf(w, "%9s %6s  ", "sec.", "%")
		} else {
			fmt.Fprintf(w, "%7s  ", "%")
		}
	}
	fmt.Fprintf(w, "\n")
}

// renderMetrics prints one row's metric cells.
func (a *Analyzer) renderMetrics(w io.Writer, m *Metrics) {
	if a.HasClock() {
		fmt.Fprintf(w, "%9.3f %5.1f%%  ", a.TickSeconds(m.Ticks), a.pct(m.Ticks, a.total.Ticks))
	}
	for _, ev := range a.Columns() {
		if ev.CountsCycles() {
			fmt.Fprintf(w, "%9.3f %5.1f%%  ", a.Seconds(ev, m.Events[ev]), a.pct(m.Events[ev], a.total.Events[ev]))
		} else {
			fmt.Fprintf(w, "%6.1f%%  ", a.pct(m.Events[ev], a.total.Events[ev]))
		}
	}
}

// FunctionList renders the paper's Figure 2.
func (a *Analyzer) FunctionList(w io.Writer, s SortBy) {
	a.renderHeader(w)
	for _, r := range a.Functions(s) {
		a.renderMetrics(w, &r.M)
		fmt.Fprintf(w, "%s\n", r.Name)
	}
}

// --- PC list (Figure 5) ---

// PCRow is one row of the hot-PC list.
type PCRow struct {
	PC         uint64
	Artificial bool
	M          Metrics
}

// PCs returns attributed PCs sorted by the given metric, descending,
// limited to the top n (0 = all).
func (a *Analyzer) PCs(s SortBy, n int) []PCRow {
	rows := make([]PCRow, 0, len(a.byPC)+len(a.byArtPC))
	for pc, m := range a.byPC {
		rows = append(rows, PCRow{PC: pc, M: *m})
	}
	for pc, m := range a.byArtPC {
		rows = append(rows, PCRow{PC: pc, Artificial: true, M: *m})
	}
	sort.SliceStable(rows, func(i, j int) bool {
		wi, wj := a.weight(&rows[i].M, s), a.weight(&rows[j].M, s)
		if wi != wj {
			return wi > wj
		}
		return rows[i].PC < rows[j].PC
	})
	if n > 0 && len(rows) > n {
		rows = rows[:n]
	}
	return rows
}

// PCName renders a PC as function+offset like the paper:
// "refresh_potential + 0x000000D0".
func (a *Analyzer) PCName(pc uint64, artificial bool) string {
	name := fmt.Sprintf("0x%08x", pc)
	if fn := a.Tab.FuncAt(pc); fn != nil {
		name = fmt.Sprintf("%s + 0x%08X", fn.Name, pc-fn.Start)
	}
	if artificial {
		name += " *<branch target>"
	}
	return name
}

// PCList renders the paper's Figure 5: PCs ranked by a metric, annotated
// with their data-object descriptors.
func (a *Analyzer) PCList(w io.Writer, s SortBy, n int) {
	a.renderHeader(w)
	a.renderMetrics(w, &a.total)
	fmt.Fprintf(w, "<Total>\n")
	for _, r := range a.PCs(s, n) {
		a.renderMetrics(w, &r.M)
		fmt.Fprintf(w, "%s\n", a.PCName(r.PC, r.Artificial))
		if x, ok := a.Tab.Xrefs[r.PC]; ok && !r.Artificial {
			fmt.Fprintf(w, "%s%s\n", pad(a, 4), a.Tab.XrefDisplay(x))
		}
	}
}

func pad(a *Analyzer, extra int) string {
	n := extra
	if a.HasClock() {
		n += 18
	}
	for _, ev := range a.Columns() {
		if ev.CountsCycles() {
			n += 18
		} else {
			n += 9
		}
	}
	b := make([]byte, n)
	for i := range b {
		b[i] = ' '
	}
	return string(b)
}

// --- data objects (Figure 6) ---

// ObjRow is one row of the data-object list.
type ObjRow struct {
	Key  ObjKey
	Name string
	M    Metrics
}

// DataObjects returns the data-object rows: <Total> first, then every
// bucket (struct types, <Scalars>, the <Unknown> aggregate and its
// subcategories) sorted by the metric, descending.
func (a *Analyzer) DataObjects(s SortBy) []ObjRow {
	var unknown Metrics
	var rows []ObjRow
	for k, m := range a.byObj {
		if k.Kind.IsUnknown() {
			unknown.Add(m)
		}
	}
	// Aggregate scalar buckets (they are keyed per-type).
	var scalars Metrics
	for k, m := range a.byObj {
		switch {
		case k.Kind == OKStruct:
			rows = append(rows, ObjRow{Key: k, Name: "{structure:" + a.Tab.TypeByID(k.Type).Name + " -}", M: *m})
		case k.Kind == OKScalars:
			scalars.Add(m)
		default:
			rows = append(rows, ObjRow{Key: k, Name: k.Kind.String(), M: *m})
		}
	}
	if !scalars.IsZero() {
		rows = append(rows, ObjRow{Key: ObjKey{Kind: OKScalars}, Name: "<Scalars>", M: scalars})
	}
	if !unknown.IsZero() {
		rows = append(rows, ObjRow{Key: ObjKey{Kind: OKUnspecified}, Name: "<Unknown>", M: unknown})
	}
	sort.SliceStable(rows, func(i, j int) bool {
		wi, wj := a.weight(&rows[i].M, s), a.weight(&rows[j].M, s)
		if wi != wj {
			return wi > wj
		}
		return rows[i].Name < rows[j].Name
	})
	out := make([]ObjRow, 0, len(rows)+1)
	out = append(out, ObjRow{Name: "<Total>", M: a.total})
	return append(out, rows...)
}

// DataObjectList renders the paper's Figure 6.
func (a *Analyzer) DataObjectList(w io.Writer, s SortBy) {
	a.renderHeader(w)
	for _, r := range a.DataObjects(s) {
		a.renderMetrics(w, &r.M)
		fmt.Fprintf(w, "%s\n", r.Name)
	}
}

// ObjMetrics returns the metrics accumulated for a struct type.
func (a *Analyzer) ObjMetrics(t dwarf.TypeID) Metrics {
	if m := a.byObj[ObjKey{Kind: OKStruct, Type: t}]; m != nil {
		return *m
	}
	return Metrics{}
}

// --- member expansion (Figure 7) ---

// MemberRow is one member of a struct expansion.
type MemberRow struct {
	Off  int64
	Name string // rendered "{type name}" descriptor
	M    Metrics
}

// Members expands a struct type into per-member metrics ordered by
// offset — the paper's Figure 7.
func (a *Analyzer) Members(t dwarf.TypeID) []MemberRow {
	ty := a.Tab.TypeByID(t)
	if ty == nil || ty.Kind != dwarf.KindStruct {
		return nil
	}
	rows := make([]MemberRow, 0, len(ty.Members))
	for i, mem := range ty.Members {
		r := MemberRow{
			Off:  mem.Off,
			Name: fmt.Sprintf("{%s %s}", a.Tab.TypeDisplay(mem.Type), mem.Name),
		}
		if m := a.byMember[memberKey{t, int32(i)}]; m != nil {
			r.M = *m
		}
		rows = append(rows, r)
	}
	return rows
}

// MemberList renders the paper's Figure 7 for the named struct.
func (a *Analyzer) MemberList(w io.Writer, structName string) error {
	id, ty := a.Tab.TypeByName(structName)
	if ty == nil || ty.Kind != dwarf.KindStruct {
		return fmt.Errorf("analyzer: no struct type %q", structName)
	}
	a.renderHeader(w)
	total := a.ObjMetrics(id)
	a.renderMetrics(w, &total)
	fmt.Fprintf(w, "{structure:%s -}\n", ty.Name)
	for _, r := range a.Members(id) {
		a.renderMetrics(w, &r.M)
		fmt.Fprintf(w, "  +%-4d %s\n", r.Off, r.Name)
	}
	return nil
}

// --- callers/callees ---

// CallRow is one caller or callee of a function.
type CallRow struct {
	Name string
	M    Metrics
}

// CallersCallees returns the attributed callers and callees of fn, plus
// its exclusive and inclusive metrics.
func (a *Analyzer) CallersCallees(fn string) (excl, incl Metrics, callers, callees []CallRow) {
	if m := a.byFunc[fn]; m != nil {
		excl = *m
	}
	if m := a.byFuncIncl[fn]; m != nil {
		incl = *m
	}
	for name, m := range a.callerOf[fn] {
		callers = append(callers, CallRow{Name: name, M: *m})
	}
	for name, m := range a.calleeOf[fn] {
		callees = append(callees, CallRow{Name: name, M: *m})
	}
	sort.Slice(callers, func(i, j int) bool { return callers[i].Name < callers[j].Name })
	sort.Slice(callees, func(i, j int) bool { return callees[i].Name < callees[j].Name })
	return excl, incl, callers, callees
}

// CallersCalleesReport renders the callers-callees view for fn.
func (a *Analyzer) CallersCalleesReport(w io.Writer, fn string) {
	excl, incl, callers, callees := a.CallersCallees(fn)
	a.renderHeader(w)
	for _, c := range callers {
		a.renderMetrics(w, &c.M)
		fmt.Fprintf(w, "  %s (caller)\n", c.Name)
	}
	a.renderMetrics(w, &excl)
	fmt.Fprintf(w, "*%s (exclusive)\n", fn)
	a.renderMetrics(w, &incl)
	fmt.Fprintf(w, "*%s (inclusive)\n", fn)
	for _, c := range callees {
		a.renderMetrics(w, &c.M)
		fmt.Fprintf(w, "  %s (callee)\n", c.Name)
	}
}
