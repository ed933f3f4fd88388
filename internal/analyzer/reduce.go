package analyzer

// reduce.go implements the sharded data reduction. The event streams of
// the loaded experiments are split into work units — one unit per
// experiment's clock stream, one per counter-event shard (experiment
// format v2 stores shards on disk; eager experiments expose synthetic
// shards over memory) — and N workers each build a private partial
// aggregate over disjoint units. One completion step (complete) then
// merges the partials into the analyzer's own aggregate in canonical
// unit order, which makes every report byte-identical to the
// single-worker reduction:
//
//   - the one ordered output, the EA-event list, is concatenated in unit
//     order, which is exactly the order the serial loop appends it;
//   - the map-shaped aggregates add uint64 weights, and integer
//     addition is commutative and associative;
//   - the only floating-point sums (total LWP/system seconds) are
//     accumulated serially per experiment, so their rounding never
//     depends on worker count.

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"dsprof/internal/hwc"
)

// Config tunes the reduction. The zero value — parallel with a
// CPU-bound default worker count, no memoization — is what New uses.
type Config struct {
	// Workers is the reduction worker count: 0 means
	// min(GOMAXPROCS, 8); 1 runs the serial reference path. Any count
	// produces byte-identical reports.
	Workers int
	// Cache, when non-nil, memoizes per-unit partial aggregates across
	// analyzer builds (profd uses this so incremental experiment sets
	// don't re-reduce old shards). Requires Keys.
	Cache PartialCache
	// Keys gives each experiment a stable identity prefix for cache
	// keys (e.g. profd store IDs), parallel to the experiment list. If
	// it is absent or mismatched, the cache is not consulted.
	Keys []string
}

// ShardPartial is an opaque memoized partial aggregate for one work
// unit. Cached partials are immutable: merging reads from them but
// never writes, so one cached partial may serve many analyzers.
type ShardPartial struct {
	p *partial
}

// PartialCache memoizes per-unit partial aggregates. Implementations
// must be safe for concurrent use; the analyzer calls Get/Put from its
// reduction workers.
type PartialCache interface {
	Get(key string) (*ShardPartial, bool)
	Put(key string, sp *ShardPartial)
}

// unitKind distinguishes the two work-unit shapes.
type unitKind uint8

const (
	unitClock unitKind = iota // one experiment's whole clock stream
	unitHWC                   // one counter-event shard
)

// unit is one independently reducible slice of profile data.
type unit struct {
	kind   unitKind
	expIdx int
	pic    int
	shard  int
	key    string // cache key; "" when the unit is not cacheable
}

// partial is one aggregate over a set of units' events: a worker's
// private aggregate over one unit, and — embedded in the Analyzer — the
// aggregate every unit's partial is merged into.
type partial struct {
	eaEvents     []AEvent // events carrying effective addresses
	byPC         map[uint64]*Metrics
	byArtPC      map[uint64]*Metrics // artificial <branch target> attributions
	byFunc       map[string]*Metrics
	byFuncIncl   map[string]*Metrics
	byLine       map[lineKey]*Metrics
	byObj        map[ObjKey]*Metrics
	byMember     map[memberKey]*Metrics
	callerOf     map[string]map[string]*Metrics // callee -> caller -> metrics
	calleeOf     map[string]map[string]*Metrics // caller -> callee -> metrics
	totalPerEv   [hwc.NumEvents]uint64          // overflow counts per event
	unknownPerEv [hwc.NumEvents]map[ObjKind]uint64
}

func newPartial() *partial {
	p := &partial{
		byPC:       make(map[uint64]*Metrics),
		byArtPC:    make(map[uint64]*Metrics),
		byFunc:     make(map[string]*Metrics),
		byFuncIncl: make(map[string]*Metrics),
		byLine:     make(map[lineKey]*Metrics),
		byObj:      make(map[ObjKey]*Metrics),
		byMember:   make(map[memberKey]*Metrics),
		callerOf:   make(map[string]map[string]*Metrics),
		calleeOf:   make(map[string]map[string]*Metrics),
	}
	for i := range p.unknownPerEv {
		p.unknownPerEv[i] = make(map[ObjKind]uint64)
	}
	return p
}

// accumulate attributes metric weight m to pc (and derived function and
// line buckets) plus caller/callee edges from the callstack, reading
// only immutable analyzer state (the symbol tables). Artificial
// branch-target attributions keep a separate PC map so a PC that is
// both a real trigger and a blocked join node reports both, like the
// paper's Figure 4.
func (p *partial) accumulate(a *Analyzer, pc uint64, artificial bool, m *Metrics, callstack []uint64) {
	if artificial {
		bumpMap(p.byArtPC, pc, m)
	} else {
		bumpMap(p.byPC, pc, m)
	}
	fn := a.Tab.FuncAt(pc)
	fname := "<unknown>"
	if fn != nil {
		fname = fn.Name
		if ln := a.Tab.Lines[pc]; ln > 0 {
			bumpMap(p.byLine, lineKey{fn.File, ln}, m)
		}
	}
	bumpMap(p.byFunc, fname, m)

	// Inclusive metrics and caller/callee edges.
	bumpMap(p.byFuncIncl, fname, m)
	seen := map[string]bool{fname: true}
	prev := fname
	for i := len(callstack) - 1; i >= 0; i-- {
		cf := a.Tab.FuncAt(callstack[i])
		cn := "<unknown>"
		if cf != nil {
			cn = cf.Name
		}
		if p.callerOf[prev] == nil {
			p.callerOf[prev] = make(map[string]*Metrics)
		}
		bumpMap(p.callerOf[prev], cn, m)
		if p.calleeOf[cn] == nil {
			p.calleeOf[cn] = make(map[string]*Metrics)
		}
		bumpMap(p.calleeOf[cn], prev, m)
		if !seen[cn] {
			seen[cn] = true
			bumpMap(p.byFuncIncl, cn, m)
		}
		prev = cn
	}
}

// units lists the reduction's work in the canonical order: per
// experiment (in argument order), the clock stream, then PIC 0's shards,
// then PIC 1's. Merging partials in this order reproduces the serial
// loop's event order exactly.
func (a *Analyzer) units(cfg Config) []unit {
	refs := Units(a.Exps)
	units := make([]unit, 0, len(refs))
	for _, r := range refs {
		units = append(units, a.unitFor(r, cfg))
	}
	return units
}

// unitFor converts one exported unit reference into the internal work
// unit, attaching its memoization key when cfg carries a keyed cache.
// The ref is trusted to come from Units (or be range-checked by the
// caller).
func (a *Analyzer) unitFor(r UnitRef, cfg Config) unit {
	keyed := cfg.Cache != nil && len(cfg.Keys) == len(a.Exps)
	e := a.Exps[r.Exp]
	if r.Clock {
		u := unit{kind: unitClock, expIdx: r.Exp}
		if keyed {
			u.key = fmt.Sprintf("%s/clock/%d/%d", cfg.Keys[r.Exp], len(e.Clock), e.Clock[len(e.Clock)-1].Cycles)
		}
		return u
	}
	u := unit{kind: unitHWC, expIdx: r.Exp, pic: r.PIC, shard: r.Shard}
	if keyed {
		sh := e.Shards(r.PIC)[r.Shard]
		u.key = fmt.Sprintf("%s/hwc/%d/%d/%d/%d-%d",
			cfg.Keys[r.Exp], r.PIC, r.Shard, sh.Count, sh.MinCycles, sh.MaxCycles)
	}
	return u
}

// reduceUnit builds (or fetches from the cache) the partial aggregate
// for one unit.
func (a *Analyzer) reduceUnit(u unit, cache PartialCache) (*partial, error) {
	if cache != nil && u.key != "" {
		if sp, ok := cache.Get(u.key); ok && sp != nil && sp.p != nil {
			return sp.p, nil
		}
	}
	p := newPartial()
	e := a.Exps[u.expIdx]
	switch u.kind {
	case unitClock:
		for _, ce := range e.Clock {
			m := &Metrics{Ticks: 1}
			p.accumulate(a, ce.PC, false, m, ce.Callstack)
		}
	case unitHWC:
		spec := e.Meta.Counters[u.pic]
		evs, err := e.ReadShard(u.pic, u.shard)
		if err != nil {
			return nil, err
		}
		p.eaEvents = slices.Grow(p.eaEvents, len(evs))
		for _, he := range evs {
			ae := a.attribute(spec, he)
			var m Metrics
			m.Events[spec.Event] = 1
			p.accumulate(a, ae.PC, ae.Artificial, &m, he.Callstack)
			bumpMap(p.byObj, ae.Obj, &m)
			if ae.Obj.Kind == OKStruct && ae.Member >= 0 {
				bumpMap(p.byMember, memberKey{ae.Obj.Type, ae.Member}, &m)
			}
			p.totalPerEv[spec.Event]++
			if ae.Obj.Kind.IsUnknown() {
				p.unknownPerEv[spec.Event][ae.Obj.Kind]++
			}
			if ae.HasEA {
				p.eaEvents = append(p.eaEvents, ae)
			}
		}
	}
	if cache != nil && u.key != "" {
		cache.Put(u.key, &ShardPartial{p: p})
	}
	return p, nil
}

// merge folds src into p. src is never mutated (cached partials are
// shared between analyzers). Map merges add unsigned integer weights,
// so merge order cannot change any value; the EA-event list is
// appended in canonical unit order by the caller.
func (p *partial) merge(src *partial) {
	p.eaEvents = append(p.eaEvents, src.eaEvents...)
	for k, m := range src.byPC {
		bumpMap(p.byPC, k, m)
	}
	for k, m := range src.byArtPC {
		bumpMap(p.byArtPC, k, m)
	}
	for k, m := range src.byFunc {
		bumpMap(p.byFunc, k, m)
	}
	for k, m := range src.byFuncIncl {
		bumpMap(p.byFuncIncl, k, m)
	}
	for k, m := range src.byLine {
		bumpMap(p.byLine, k, m)
	}
	for k, m := range src.byObj {
		bumpMap(p.byObj, k, m)
	}
	for k, m := range src.byMember {
		bumpMap(p.byMember, k, m)
	}
	for callee, callers := range src.callerOf {
		if p.callerOf[callee] == nil {
			p.callerOf[callee] = make(map[string]*Metrics, len(callers))
		}
		for caller, m := range callers {
			bumpMap(p.callerOf[callee], caller, m)
		}
	}
	for caller, callees := range src.calleeOf {
		if p.calleeOf[caller] == nil {
			p.calleeOf[caller] = make(map[string]*Metrics, len(callees))
		}
		for callee, m := range callees {
			bumpMap(p.calleeOf[caller], callee, m)
		}
	}
	for ev := range src.totalPerEv {
		p.totalPerEv[ev] += src.totalPerEv[ev]
	}
	for ev := range src.unknownPerEv {
		for k, n := range src.unknownPerEv[ev] {
			p.unknownPerEv[ev][k] += n
		}
	}
}

// defaultWorkers is the zero-Config worker count.
func defaultWorkers() int {
	w := runtime.GOMAXPROCS(0)
	if w > 8 {
		w = 8
	}
	if w < 1 {
		w = 1
	}
	return w
}

// reduce performs the full data reduction: fan the work units out to
// cfg.Workers workers, then complete the analyzer from their partials.
func (a *Analyzer) reduce(cfg Config) error {
	units := a.units(cfg)
	parts := make([]*partial, len(units))
	errs := make([]error, len(units))
	workers := cfg.Workers
	if workers <= 0 {
		workers = defaultWorkers()
	}
	if workers > len(units) {
		workers = len(units)
	}
	if workers <= 1 {
		// Serial reference path: one unit at a time, in order.
		for i, u := range units {
			parts[i], errs[i] = a.reduceUnit(u, cfg.Cache)
		}
	} else {
		var next atomic.Int64
		next.Store(-1)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1))
					if i >= len(units) {
						return
					}
					parts[i], errs[i] = a.reduceUnit(units[i], cfg.Cache)
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("analyzer: reducing events: %w", err)
		}
	}
	a.complete(parts)
	return nil
}

// complete is the one finishing step of every reduction, local or from
// shipped partials: parts[i] is the partial of the i-th canonical unit.
func (a *Analyzer) complete(parts []*partial) {
	// The only floating-point accumulation happens here, serially in
	// experiment order, so worker count or distribution can never
	// perturb rounding. LWP/system time comes from the run's statistics:
	// the analyzer displays them in the <Total> header like the paper's
	// Figure 1.
	for _, e := range a.Exps {
		a.totalLWP += float64(e.Meta.Stats.Cycles) / float64(a.ClockHz)
		a.totalSys += float64(e.Meta.Stats.SyscallCycles) / float64(a.ClockHz)
	}
	var nea int
	for _, p := range parts {
		nea += len(p.eaEvents)
	}
	a.eaEvents = slices.Grow(a.eaEvents, nea)
	for _, p := range parts {
		a.merge(p)
	}
	// <Total> row: the sum over all attributed weight.
	for _, m := range a.byPC {
		a.total.Add(m)
	}
	for _, m := range a.byArtPC {
		a.total.Add(m)
	}
	a.reduced = true
}
