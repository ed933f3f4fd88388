package analyzer

// render.go is the named-report entry point shared by every report
// consumer — cmd/erprint's command tokens and internal/profd's HTTP
// report endpoints dispatch through Render, so the two surfaces are
// byte-identical by construction. Every report, built-in or contributed
// by another package, is one entry in one registry; the dispatcher
// looks it up and fills the render options' defaults once.

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"dsprof/internal/hwc"
)

// RenderOpts configure a named report rendering.
type RenderOpts struct {
	// Sort orders rows in top-N style reports. The zero value means the
	// analyzer's natural default: User CPU time when clock profiles are
	// present, otherwise the first collected counter event.
	Sort *SortBy
	// TopN limits the rows of top-N reports (≤ 0 = the er_print
	// default, 20).
	TopN int
	// FeedbackMinShare is the feedback report's inclusion threshold
	// (0 = the default, 0.01).
	FeedbackMinShare float64
}

// DefaultSort is the sort erprint applies when the user names none:
// User CPU time if any experiment carries clock profiles, otherwise the
// first hardware counter event that was collected.
func (a *Analyzer) DefaultSort() SortBy {
	if a.HasClock() {
		return ByUserCPU
	}
	for ev := hwc.Event(1); ev < hwc.NumEvents; ev++ {
		if a.HasEvent(ev) {
			return ByEvent(ev)
		}
	}
	return ByEvent(hwc.EvCycles)
}

// withDefaults fills every option a report reads, so renderers never
// apply defaults of their own: the sort, TopN ≤ 0 → 20 and a feedback
// share of 0 → 0.01.
func (o RenderOpts) withDefaults(a *Analyzer) RenderOpts {
	if o.Sort == nil {
		s := a.DefaultSort()
		o.Sort = &s
	}
	if o.TopN <= 0 {
		o.TopN = 20
	}
	if o.FeedbackMinShare == 0 {
		o.FeedbackMinShare = 0.01
	}
	return o
}

// RegisteredReport is one named report of the registry. The analyzer's
// own reports are entries like any other; RegisterReport is the
// extension point that lets subsystems built on top of the analyzer
// (e.g. internal/advisor's "advice" report) plug into the same
// dispatcher erprint and profd share, so their output stays
// byte-identical across every consumer without an import cycle.
type RegisteredReport struct {
	Name     string
	NeedsArg bool
	Desc     string
	// Text renders the report; it must be deterministic for fixed
	// experiments and options. The dispatcher passes options with every
	// default filled in.
	Text func(a *Analyzer, w io.Writer, arg string, opts RenderOpts) error
	// JSON returns the report as a JSON-marshallable value; nil means
	// the report only exists as rendered text.
	JSON func(a *Analyzer, arg string, opts RenderOpts) (any, error)
}

// reports is the registry, in presentation order: the analyzer's own
// reports in the paper's figure order, then registered extensions in
// registration order.
var (
	reportsMu sync.RWMutex
	reports   = []RegisteredReport{
		{Name: "total", Desc: "<Total> metrics (paper Figure 1)", JSON: totalJSON,
			Text: func(a *Analyzer, w io.Writer, _ string, _ RenderOpts) error {
				a.TotalReport(w)
				return nil
			}},
		{Name: "functions", Desc: "the function list (Figure 2)", JSON: functionsJSON,
			Text: func(a *Analyzer, w io.Writer, _ string, o RenderOpts) error {
				a.FunctionList(w, *o.Sort)
				return nil
			}},
		{Name: "source", NeedsArg: true, Desc: "source=FN: annotated source of function FN (Figure 3)",
			Text: func(a *Analyzer, w io.Writer, fn string, _ RenderOpts) error { return a.AnnotatedSource(w, fn) }},
		{Name: "disasm", NeedsArg: true, Desc: "disasm=FN: annotated disassembly of FN (Figure 4)",
			Text: func(a *Analyzer, w io.Writer, fn string, _ RenderOpts) error { return a.AnnotatedDisasm(w, fn) }},
		{Name: "pcs", Desc: "hot PCs with data-object descriptors (Figure 5)", JSON: pcsJSON,
			Text: func(a *Analyzer, w io.Writer, _ string, o RenderOpts) error {
				a.PCList(w, *o.Sort, o.TopN)
				return nil
			}},
		{Name: "lines", Desc: "hot source lines", JSON: linesJSON,
			Text: func(a *Analyzer, w io.Writer, _ string, o RenderOpts) error {
				a.LineList(w, *o.Sort, o.TopN)
				return nil
			}},
		{Name: "objects", Desc: "data objects (Figure 6)", JSON: objectsJSON,
			Text: func(a *Analyzer, w io.Writer, _ string, o RenderOpts) error {
				a.DataObjectList(w, *o.Sort)
				return nil
			}},
		{Name: "members", NeedsArg: true, Desc: "members=T: struct T member expansion (Figure 7)", JSON: membersJSON,
			Text: func(a *Analyzer, w io.Writer, t string, _ RenderOpts) error { return a.MemberList(w, t) }},
		{Name: "callers", NeedsArg: true, Desc: "callers=FN: callers/callees of FN",
			Text: func(a *Analyzer, w io.Writer, fn string, _ RenderOpts) error {
				a.CallersCalleesReport(w, fn)
				return nil
			}},
		{Name: "addrspace", Desc: "segment/page/cache-line breakdown (paper §4)",
			Text: func(a *Analyzer, w io.Writer, _ string, o RenderOpts) error {
				a.AddressSpaceReport(w, *o.Sort, o.TopN)
				return nil
			}},
		{Name: "feedback", Desc: "prefetch feedback file (paper §4)",
			Text: func(a *Analyzer, w io.Writer, _ string, o RenderOpts) error {
				a.WriteFeedbackFile(w, o.FeedbackMinShare)
				return nil
			}},
		{Name: "effect", Desc: "apropos backtracking effectiveness", JSON: effectJSON,
			Text: func(a *Analyzer, w io.Writer, _ string, _ RenderOpts) error {
				a.EffectivenessReport(w)
				return nil
			}},
	}
)

// RegisterReport appends a report to the registry. Registration
// normally happens from the providing package's init; a duplicate or
// malformed registration panics, since it is a programming error that
// would silently shadow an existing report.
func RegisterReport(r RegisteredReport) {
	if r.Name == "" || r.Text == nil {
		panic("analyzer: RegisterReport needs a name and a Text renderer")
	}
	reportsMu.Lock()
	defer reportsMu.Unlock()
	for _, have := range reports {
		if have.Name == r.Name {
			panic(fmt.Sprintf("analyzer: report %q registered twice", r.Name))
		}
	}
	reports = append(reports, r)
}

// lookupReport returns the report named name.
func lookupReport(name string) (RegisteredReport, bool) {
	reportsMu.RLock()
	defer reportsMu.RUnlock()
	for _, r := range reports {
		if r.Name == name {
			return r, true
		}
	}
	return RegisteredReport{}, false
}

// ReportNames lists every valid report name, in presentation order.
func ReportNames() []string {
	reportsMu.RLock()
	defer reportsMu.RUnlock()
	names := make([]string, 0, len(reports))
	for _, r := range reports {
		names = append(names, r.Name)
	}
	return names
}

// ValidReport reports whether name (without any =ARG suffix) names a
// registered report.
func ValidReport(name string) bool {
	_, ok := lookupReport(name)
	return ok
}

// ReportUsage renders the one-line-per-report help listing used by
// erprint's usage text and profd's error responses.
func ReportUsage() string {
	reportsMu.RLock()
	defer reportsMu.RUnlock()
	var b strings.Builder
	for _, r := range reports {
		name := r.Name
		if r.NeedsArg {
			name += "=ARG"
		}
		fmt.Fprintf(&b, "  %-12s %s\n", name, r.Desc)
	}
	return b.String()
}

// SplitReport splits a report token like "members=node" into its name
// and argument.
func SplitReport(token string) (name, arg string) {
	if i := strings.IndexByte(token, '='); i >= 0 {
		return token[:i], token[i+1:]
	}
	return token, ""
}

// Render writes the named report — a token like "objects" or
// "members=node" — to w. Unknown names and missing required arguments
// are errors, so callers can reject bad requests up front with
// ValidReport and still handle argument errors here.
func (a *Analyzer) Render(w io.Writer, report string, opts RenderOpts) error {
	name, arg := SplitReport(report)
	r, ok := lookupReport(name)
	if !ok {
		return unknownReport(name)
	}
	return r.Text(a, w, arg, opts.withDefaults(a))
}

// RenderJSON returns the named report as a JSON-marshallable value, for
// reports with a natural row structure. Reports that only exist as
// rendered text (annotated source/disassembly, the feedback file)
// return an error directing callers to the text rendering.
func (a *Analyzer) RenderJSON(report string, opts RenderOpts) (any, error) {
	name, arg := SplitReport(report)
	r, ok := lookupReport(name)
	if !ok {
		return nil, unknownReport(name)
	}
	if r.JSON == nil {
		return nil, fmt.Errorf("analyzer: report %q has no JSON rendering; request the text format", name)
	}
	return r.JSON(a, arg, opts.withDefaults(a))
}

func unknownReport(name string) error {
	return fmt.Errorf("analyzer: unknown report %q; valid reports:\n%s", name, ReportUsage())
}

// --- JSON renderings ---

// EventJSON is one hardware-counter metric in a JSON report row.
type EventJSON struct {
	Overflows uint64  `json:"overflows"`
	Count     uint64  `json:"count"`
	Seconds   float64 `json:"seconds,omitempty"`
}

// MetricsJSON is the JSON form of a Metrics row.
type MetricsJSON struct {
	Ticks      uint64               `json:"ticks,omitempty"`
	UserCPUSec float64              `json:"userCpuSec,omitempty"`
	Events     map[string]EventJSON `json:"events,omitempty"`
}

// NamedRowJSON is one {name, metrics} row of a JSON report.
type NamedRowJSON struct {
	Name string      `json:"name"`
	M    MetricsJSON `json:"metrics"`
}

func (a *Analyzer) metricsJSON(m *Metrics) MetricsJSON {
	out := MetricsJSON{}
	if a.HasClock() {
		out.Ticks = m.Ticks
		out.UserCPUSec = a.TickSeconds(m.Ticks)
	}
	for _, ev := range a.Columns() {
		n := m.Events[ev]
		e := EventJSON{Overflows: n, Count: a.Count(ev, n)}
		if ev.CountsCycles() {
			e.Seconds = a.Seconds(ev, n)
		}
		if out.Events == nil {
			out.Events = make(map[string]EventJSON)
		}
		out.Events[ev.String()] = e
	}
	return out
}

func totalJSON(a *Analyzer, _ string, _ RenderOpts) (any, error) {
	out := map[string]any{"total": a.metricsJSON(&a.total)}
	if len(a.Degraded) > 0 {
		out["warnings"] = a.Degraded
	}
	return out, nil
}

func functionsJSON(a *Analyzer, _ string, o RenderOpts) (any, error) {
	out := []NamedRowJSON{}
	for _, r := range a.Functions(*o.Sort) {
		out = append(out, NamedRowJSON{Name: r.Name, M: a.metricsJSON(&r.M)})
	}
	return map[string]any{"functions": out}, nil
}

func objectsJSON(a *Analyzer, _ string, o RenderOpts) (any, error) {
	out := []NamedRowJSON{}
	for _, r := range a.DataObjects(*o.Sort) {
		out = append(out, NamedRowJSON{Name: r.Name, M: a.metricsJSON(&r.M)})
	}
	return map[string]any{"objects": out}, nil
}

func membersJSON(a *Analyzer, arg string, _ RenderOpts) (any, error) {
	id, ty := a.Tab.TypeByName(arg)
	if ty == nil {
		return nil, fmt.Errorf("analyzer: no struct type %q", arg)
	}
	type memberJSON struct {
		Offset int64       `json:"offset"`
		Name   string      `json:"name"`
		M      MetricsJSON `json:"metrics"`
	}
	var out []memberJSON
	for _, r := range a.Members(id) {
		out = append(out, memberJSON{Offset: r.Off, Name: r.Name, M: a.metricsJSON(&r.M)})
	}
	total := a.ObjMetrics(id)
	return map[string]any{
		"struct":  ty.Name,
		"total":   a.metricsJSON(&total),
		"members": out,
	}, nil
}

func pcsJSON(a *Analyzer, _ string, o RenderOpts) (any, error) {
	type pcJSON struct {
		PC         string      `json:"pc"`
		Name       string      `json:"name"`
		Artificial bool        `json:"artificial,omitempty"`
		Object     string      `json:"object,omitempty"`
		M          MetricsJSON `json:"metrics"`
	}
	var out []pcJSON
	for _, r := range a.PCs(*o.Sort, o.TopN) {
		row := pcJSON{
			PC:         fmt.Sprintf("0x%08x", r.PC),
			Name:       a.PCName(r.PC, r.Artificial),
			Artificial: r.Artificial,
			M:          a.metricsJSON(&r.M),
		}
		if x, ok := a.Tab.Xrefs[r.PC]; ok && !r.Artificial {
			row.Object = a.Tab.XrefDisplay(x)
		}
		out = append(out, row)
	}
	return map[string]any{"pcs": out}, nil
}

func linesJSON(a *Analyzer, _ string, o RenderOpts) (any, error) {
	type lineJSON struct {
		File string      `json:"file"`
		Line int32       `json:"line"`
		M    MetricsJSON `json:"metrics"`
	}
	var out []lineJSON
	for _, r := range a.Lines(*o.Sort, o.TopN) {
		out = append(out, lineJSON{File: r.File, Line: r.Line, M: a.metricsJSON(&r.M)})
	}
	return map[string]any{"lines": out}, nil
}

func effectJSON(a *Analyzer, _ string, _ RenderOpts) (any, error) {
	out := map[string]float64{}
	evs := make([]hwc.Event, 0, len(a.Intervals))
	for ev := range a.Intervals {
		evs = append(evs, ev)
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i] < evs[j] })
	for _, ev := range evs {
		if ev.MemoryRelated() {
			out[ev.String()] = a.Effectiveness(ev)
		}
	}
	return map[string]any{"effectiveness": out}, nil
}
