// Package analyzer implements data reduction and reporting for
// experiments: the er_print/analyzer of the paper.
//
// The analyzer validates each counter-overflow event's candidate trigger
// PC against the compiler's branch-target tables (inserting artificial
// <branch target> PCs when the execution path into the window is
// ambiguous), attributes metrics to PCs, source lines, functions and —
// the paper's novelty — to data object types and members, and renders the
// paper's report formats: function lists, annotated source and
// disassembly, PC lists, data-object lists and member expansions, plus
// the address-space reports sketched in the paper's future work.
package analyzer

import (
	"fmt"

	"dsprof/internal/asm"
	"dsprof/internal/dwarf"
	"dsprof/internal/experiment"
	"dsprof/internal/hwc"
	"dsprof/internal/isa"
)

// Validation classifies how an event's trigger PC was resolved.
type Validation uint8

// Validation outcomes.
const (
	VOK           Validation = iota // candidate validated
	VArtificialBT                   // blocked by intervening branch target
	VNotFound                       // backtracking found no memory instruction
	VNoHwcprof                      // module not compiled with -xhwcprof
	VUnverifiable                   // no branch-target info to validate against
	VNoBacktrack                    // counter armed without backtracking
)

// ObjKind classifies a data-object bucket, mirroring the paper's
// categories in Figure 6.
type ObjKind uint8

// Data-object buckets.
const (
	OKStruct          ObjKind = iota // a struct type: {structure:X -}
	OKScalars                        // all non-struct named objects: <Scalars>
	OKUnspecified                    // no symbolic reference from the compiler
	OKUnresolvable                   // backtracking could not determine the trigger
	OKUnascertainable                // module not compiled with -xhwcprof
	OKUnidentified                   // compiler temporary
	OKUnverifiable                   // inadequate branch-target information
)

// ObjKey identifies one data-object aggregation bucket.
type ObjKey struct {
	Kind ObjKind
	Type dwarf.TypeID // for OKStruct
}

// unknownKinds are the subcategories aggregated under <Unknown>.
var unknownKinds = []ObjKind{OKUnspecified, OKUnresolvable, OKUnascertainable, OKUnidentified, OKUnverifiable}

// IsUnknown reports whether the bucket belongs under <Unknown>.
func (k ObjKind) IsUnknown() bool {
	return k != OKStruct && k != OKScalars
}

func (k ObjKind) String() string {
	switch k {
	case OKScalars:
		return "<Scalars>"
	case OKUnspecified:
		return "(Unspecified)"
	case OKUnresolvable:
		return "(Unresolvable)"
	case OKUnascertainable:
		return "(Unascertainable)"
	case OKUnidentified:
		return "(Unidentified)"
	case OKUnverifiable:
		return "(Unverifiable)"
	}
	return "struct"
}

// Metrics accumulates profile weight: clock ticks and counter overflow
// counts per event. Each overflow represents Interval(event) underlying
// events; conversions to estimated counts and seconds happen at render
// time via the Analyzer's interval table.
type Metrics struct {
	Ticks  uint64
	Events [hwc.NumEvents]uint64
}

// Add accumulates other into m.
func (m *Metrics) Add(o *Metrics) {
	m.Ticks += o.Ticks
	for i := range m.Events {
		m.Events[i] += o.Events[i]
	}
}

// IsZero reports whether no weight was accumulated.
func (m *Metrics) IsZero() bool {
	if m.Ticks != 0 {
		return false
	}
	for _, v := range m.Events {
		if v != 0 {
			return false
		}
	}
	return true
}

// AEvent is one counter overflow event after attribution.
type AEvent struct {
	Event      hwc.Event
	PC         uint64 // attribution PC
	Artificial bool   // attributed to an artificial <branch target> PC
	Val        Validation
	Obj        ObjKey
	Member     int32 // struct member index, -1 otherwise
	EA         uint64
	HasEA      bool
	Cycles     uint64 // machine time of delivery
}

type lineKey struct {
	file string
	line int32
}

type memberKey struct {
	typ    dwarf.TypeID
	member int32
}

// Analyzer is a loaded set of experiments over one program. It embeds
// the aggregate its reduction merges every work unit's partial into.
type Analyzer struct {
	Exps []*experiment.Experiment
	Prog *asm.Program
	Tab  *dwarf.Table

	ClockHz    uint64
	TickCycles uint64
	Intervals  map[hwc.Event]uint64

	// Degraded carries the recovery note of every loaded experiment that
	// was salvaged after an interrupted write (Meta.Degraded), one entry
	// per affected experiment. Reports surface these as WARNING lines so
	// a partially-recovered profile is never mistaken for a complete one.
	Degraded []string

	cfg      Config // reduction configuration (cache/keys for ReducePartial)
	reduced  bool   // set once a reduction (local or from partials) ran
	total    Metrics
	totalLWP float64 // seconds
	totalSys float64
	partial
}

// New builds an analyzer over one or more experiments on the same
// target, with the default (parallel) reduction configuration.
func New(exps ...*experiment.Experiment) (*Analyzer, error) {
	return NewWithConfig(Config{}, exps...)
}

// NewWithConfig builds an analyzer with an explicit reduction
// configuration — worker count and optional per-shard memoization. The
// configuration affects only speed: reports are byte-identical for
// every worker count.
func NewWithConfig(cfg Config, exps ...*experiment.Experiment) (*Analyzer, error) {
	a, err := NewContext(cfg, exps...)
	if err != nil {
		return nil, err
	}
	if err := a.reduce(cfg); err != nil {
		return nil, err
	}
	return a, nil
}

// NewContext builds the analyzer shell — symbol tables, interval
// validation, degradation notes — without running the reduction. It is
// the entry point of the distributed reduce: a worker node builds a
// context over its local experiment replica and serves ReducePartial;
// a coordinator builds one over the full experiment set and completes
// it with ReduceFromPartials. Until one of those runs, the analyzer
// holds no aggregates and must not render reports.
func NewContext(cfg Config, exps ...*experiment.Experiment) (*Analyzer, error) {
	if len(exps) == 0 {
		return nil, fmt.Errorf("analyzer: no experiments")
	}
	a := &Analyzer{
		Exps:      exps,
		cfg:       cfg,
		Prog:      exps[0].Prog,
		Intervals: make(map[hwc.Event]uint64),
		partial:   *newPartial(),
	}
	if a.Prog == nil || a.Prog.Debug == nil {
		return nil, fmt.Errorf("analyzer: experiment carries no program/debug info")
	}
	a.Tab = a.Prog.Debug
	a.ClockHz = exps[0].Meta.ClockHz
	for _, e := range exps {
		if e.Prog == nil || e.Prog.Name != a.Prog.Name {
			return nil, fmt.Errorf("analyzer: experiments profile different targets")
		}
		if e.Meta.ClockHz != a.ClockHz {
			return nil, fmt.Errorf("analyzer: experiments ran at different clock rates")
		}
		if e.Meta.Degraded != "" {
			name := e.Meta.Label
			if name == "" {
				name = e.Meta.ProgName
			}
			a.Degraded = append(a.Degraded, fmt.Sprintf("experiment %q is incomplete (%s)", name, e.Meta.Degraded))
		}
		if e.Meta.ClockProfiling {
			if a.TickCycles != 0 && a.TickCycles != e.Meta.ClockTickCycles {
				return nil, fmt.Errorf("analyzer: conflicting clock-profiling intervals")
			}
			a.TickCycles = e.Meta.ClockTickCycles
		}
		for _, cs := range e.Meta.Counters {
			if cs.Event == hwc.EvNone {
				continue
			}
			if iv, ok := a.Intervals[cs.Event]; ok && iv != cs.Interval {
				return nil, fmt.Errorf("analyzer: conflicting intervals for %v", cs.Event)
			}
			a.Intervals[cs.Event] = cs.Interval
		}
	}
	return a, nil
}

func bumpMap[K comparable](mm map[K]*Metrics, k K, m *Metrics) {
	cur := mm[k]
	if cur == nil {
		cur = &Metrics{}
		mm[k] = cur
	}
	cur.Add(m)
}

// attribute resolves one raw event record into an attributed event —
// the §2.3 validation logic.
func (a *Analyzer) attribute(spec experiment.CounterSpec, he experiment.HWCEvent) AEvent {
	ae := AEvent{
		Event:  spec.Event,
		Member: -1,
		EA:     he.EA,
		HasEA:  he.HasEA,
		Cycles: he.Cycles,
	}
	if !spec.Backtrack || !spec.Event.MemoryRelated() {
		ae.PC = he.DeliveredPC
		ae.Val = VNoBacktrack
		ae.Obj = a.objAt(he.DeliveredPC)
		if in := a.Prog.InstrAt(he.DeliveredPC); in == nil || !in.Op.IsMem() {
			ae.Obj = ObjKey{Kind: OKUnspecified}
		}
		a.fillMember(&ae)
		return ae
	}
	if he.CandidatePC == 0 {
		ae.PC = he.DeliveredPC
		ae.Val = VNotFound
		ae.Obj = ObjKey{Kind: OKUnresolvable}
		return ae
	}
	fn := a.Tab.FuncAt(he.CandidatePC)
	if fn != nil && !fn.HWCProf {
		ae.PC = he.CandidatePC
		ae.Val = VNoHwcprof
		ae.Obj = ObjKey{Kind: OKUnascertainable}
		return ae
	}
	if len(a.Tab.BranchTargets) == 0 {
		ae.PC = he.CandidatePC
		ae.Val = VUnverifiable
		ae.Obj = ObjKey{Kind: OKUnverifiable}
		return ae
	}
	// Validate: no branch target may lie in (candidate, delivered] —
	// otherwise the candidate does not postdominate the delivered PC
	// within its basic block, and execution may never have reached it.
	// The event is then attributed to an artificial PC at the *last*
	// such target: that is the entry of the delivered PC's basic block,
	// the only PC in the window provably executed (any jump into the
	// block past its entry would itself require a later branch target).
	// Attributing to the first target instead — a join node possibly in
	// a different function, never on the executed path — was a bug.
	var bt uint64
	for pc := he.CandidatePC + isa.InstrBytes; pc <= he.DeliveredPC; pc += isa.InstrBytes {
		if a.Tab.BranchTargets[pc] {
			bt = pc
		}
	}
	if bt != 0 {
		ae.PC = bt
		ae.Artificial = true
		ae.Val = VArtificialBT
		ae.Obj = ObjKey{Kind: OKUnresolvable}
		return ae
	}
	ae.PC = he.CandidatePC
	ae.Val = VOK
	ae.Obj = a.objAt(he.CandidatePC)
	a.fillMember(&ae)
	return ae
}

// objAt maps the xref at pc to a data-object bucket.
func (a *Analyzer) objAt(pc uint64) ObjKey {
	x, ok := a.Tab.Xrefs[pc]
	if !ok {
		return ObjKey{Kind: OKUnspecified}
	}
	if x.Type == dwarf.NoType {
		return ObjKey{Kind: OKUnidentified}
	}
	t := a.Tab.TypeByID(x.Type)
	if t == nil {
		return ObjKey{Kind: OKUnspecified}
	}
	if t.Kind == dwarf.KindStruct {
		return ObjKey{Kind: OKStruct, Type: x.Type}
	}
	return ObjKey{Kind: OKScalars, Type: x.Type}
}

// fillMember copies the member index from the xref for struct buckets.
func (a *Analyzer) fillMember(ae *AEvent) {
	if x, ok := a.Tab.Xrefs[ae.PC]; ok && ae.Obj.Kind == OKStruct {
		ae.Member = x.Member
	}
}

// --- metric conversions ---

// Seconds converts a metric's overflow count for a cycle-counting event
// into simulated seconds.
func (a *Analyzer) Seconds(ev hwc.Event, overflows uint64) float64 {
	return float64(overflows*a.Intervals[ev]) / float64(a.ClockHz)
}

// Count estimates the underlying event count from overflow counts.
func (a *Analyzer) Count(ev hwc.Event, overflows uint64) uint64 {
	return overflows * a.Intervals[ev]
}

// TickSeconds converts clock ticks to seconds of User CPU time.
func (a *Analyzer) TickSeconds(ticks uint64) float64 {
	return float64(ticks*a.TickCycles) / float64(a.ClockHz)
}

// Total returns the <Total> metrics row.
func (a *Analyzer) Total() Metrics { return a.total }

// EAEvents returns the counter events that carry recovered effective
// addresses, in the reduction's canonical order (so the slice is
// identical whether the reduction ran serially, sharded in parallel, or
// distributed across cluster workers). Callers must not modify it. The
// object-provenance reports join these against allocation records.
func (a *Analyzer) EAEvents() []AEvent { return a.eaEvents }

// HasClock reports whether any experiment recorded clock profiles.
func (a *Analyzer) HasClock() bool { return a.TickCycles != 0 }

// HasEvent reports whether ev was collected.
func (a *Analyzer) HasEvent(ev hwc.Event) bool {
	_, ok := a.Intervals[ev]
	return ok
}

// Effectiveness reports the apropos backtracking effectiveness for ev:
// 1 minus the fraction of events attributed to (Unresolvable) and
// (Unascertainable) — the paper's definition.
func (a *Analyzer) Effectiveness(ev hwc.Event) float64 {
	total := a.totalPerEv[ev]
	if total == 0 {
		return 0
	}
	bad := a.unknownPerEv[ev][OKUnresolvable] + a.unknownPerEv[ev][OKUnascertainable]
	return 1 - float64(bad)/float64(total)
}
