package analyzer

// partial.go is the distributed face of the sharded reduction: the
// canonical work-unit enumeration, and a serialized form of the per-unit
// partial aggregate, so a reduction can span process (and machine)
// boundaries. A worker node holding an experiment replica computes
// partials locally (ReducePartial); a coordinator that built a context
// over the same experiment set decodes the shipped partials and hands
// them to the same completion step the local reduction ends in
// (ReduceFromPartials). Because the wire form preserves the EA-event
// list exactly and every map-shaped aggregate merges by unsigned
// addition, the completed analyzer renders reports byte-identical to
// the serial single-process reduction — the same argument reduce.go
// makes for in-process parallelism, extended across nodes. The wire
// form carries no other per-event list.

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"

	"dsprof/internal/dwarf"
	"dsprof/internal/experiment"
	"dsprof/internal/hwc"
)

// UnitRef identifies one reduction work unit — an experiment's clock
// stream or one counter-event shard — positionally, relative to the
// analyzer's experiment argument order. It is the unit of distribution:
// small enough to name in an RPC, canonical enough that two nodes
// enumerating the same experiment set agree on every index.
type UnitRef struct {
	Exp   int  `json:"exp"`             // experiment index in argument order
	Clock bool `json:"clock,omitempty"` // true: the whole clock stream
	PIC   int  `json:"pic"`             // counter PIC (when Clock is false)
	Shard int  `json:"shard"`           // shard index within the PIC's stream
}

func (r UnitRef) String() string {
	if r.Clock {
		return fmt.Sprintf("exp%d/clock", r.Exp)
	}
	return fmt.Sprintf("exp%d/pic%d/shard%d", r.Exp, r.PIC, r.Shard)
}

// Units enumerates the reduction work units for exps in the canonical
// order: per experiment (argument order), the clock stream, then PIC 0's
// shards, then PIC 1's. Merging unit partials in exactly this order is
// what makes any reduction — serial, parallel, or distributed —
// byte-identical to the serial reference.
func Units(exps []*experiment.Experiment) []UnitRef {
	var refs []UnitRef
	for xi, e := range exps {
		if len(e.Clock) > 0 {
			refs = append(refs, UnitRef{Exp: xi, Clock: true})
		}
		for pic := 0; pic < 2; pic++ {
			if e.Meta.Counters[pic].Event == hwc.EvNone {
				continue
			}
			for si := range e.Shards(pic) {
				refs = append(refs, UnitRef{Exp: xi, PIC: pic, Shard: si})
			}
		}
	}
	return refs
}

// checkRef validates a unit reference against the context's experiments.
func (a *Analyzer) checkRef(r UnitRef) error {
	if r.Exp < 0 || r.Exp >= len(a.Exps) {
		return fmt.Errorf("analyzer: unit %v: experiment index out of range (%d experiments)", r, len(a.Exps))
	}
	e := a.Exps[r.Exp]
	if r.Clock {
		if len(e.Clock) == 0 {
			return fmt.Errorf("analyzer: unit %v: experiment has no clock stream", r)
		}
		return nil
	}
	if r.PIC < 0 || r.PIC >= experiment.NumPICs {
		return fmt.Errorf("analyzer: unit %v: PIC out of range", r)
	}
	if n := len(e.Shards(r.PIC)); r.Shard < 0 || r.Shard >= n {
		return fmt.Errorf("analyzer: unit %v: shard out of range (%d shards)", r, n)
	}
	return nil
}

// ReducePartial computes the partial aggregate for one work unit and
// returns it in wire form. The context's Config.Cache (when keyed)
// memoizes the underlying partial exactly as the in-process reduction
// does, so repeated distributed queries over the same shard re-encode a
// cached aggregate instead of re-attributing events.
func (a *Analyzer) ReducePartial(r UnitRef) ([]byte, error) {
	if err := a.checkRef(r); err != nil {
		return nil, err
	}
	p, err := a.reduceUnit(a.unitFor(r, a.cfg), a.cfg.Cache)
	if err != nil {
		return nil, fmt.Errorf("analyzer: reducing unit %v: %w", r, err)
	}
	return encodePartial(p)
}

// ReduceFromPartials completes a context built by NewContext: wires[i]
// must be the serialized partial for Units(a.Exps)[i]. Every partial is
// decoded and checked before any is merged, so a failed call leaves the
// context untouched; the merge then runs through the local reduction's
// completion step, so the finished analyzer's reports are
// byte-identical to NewWithConfig over the same experiments —
// regardless of which nodes computed which partials.
func (a *Analyzer) ReduceFromPartials(wires [][]byte) error {
	if a.reduced {
		return fmt.Errorf("analyzer: already reduced")
	}
	refs := Units(a.Exps)
	if len(wires) != len(refs) {
		return fmt.Errorf("analyzer: %d partials for %d work units", len(wires), len(refs))
	}
	parts := make([]*partial, len(wires))
	for i, w := range wires {
		p, err := decodePartial(w)
		if err != nil {
			return fmt.Errorf("analyzer: partial for unit %v: %w", refs[i], err)
		}
		// Cross-check counter units against the local shard table: a
		// partial computed over a replica whose sharding disagrees with
		// ours would silently double-count or drop events; the per-event
		// total is exactly the shard's event count, so a mismatch is
		// detectable before it poisons the merge.
		if r := refs[i]; !r.Clock {
			e := a.Exps[r.Exp]
			ev := e.Meta.Counters[r.PIC].Event
			if want := uint64(e.Shards(r.PIC)[r.Shard].Count); p.totalPerEv[ev] != want {
				return fmt.Errorf("analyzer: partial for unit %v carries %d %v events, shard has %d",
					r, p.totalPerEv[ev], ev, want)
			}
		}
		parts[i] = p
	}
	a.complete(parts)
	return nil
}

// Reduced reports whether the analyzer holds aggregates (a local
// reduction or ReduceFromPartials completed).
func (a *Analyzer) Reduced() bool { return a.reduced }

// --- wire form ---

// partialWireVersion guards the serialized layout; a coordinator and a
// worker disagreeing on it fail loudly instead of merging garbage.
const partialWireVersion = 2

type wirePC struct {
	PC uint64
	M  Metrics
}

type wireStr struct {
	Name string
	M    Metrics
}

type wireLine struct {
	File string
	Line int32
	M    Metrics
}

type wireObj struct {
	Obj ObjKey
	M   Metrics
}

type wireMember struct {
	Type   dwarf.TypeID
	Member int32
	M      Metrics
}

type wireEdge struct {
	A, B string // callerOf: A=callee, B=caller; calleeOf: A=caller, B=callee
	M    Metrics
}

type wireUnknown struct {
	Ev   int
	Kind ObjKind
	N    uint64
}

// wirePartial is the exported (gob-encodable) mirror of partial. The
// EA-event list is carried verbatim; the map aggregates are flattened
// to key-sorted slices, which makes the encoding deterministic — two
// nodes computing the same unit produce identical bytes.
type wirePartial struct {
	Version      int
	EAEvents     []AEvent
	ByPC         []wirePC
	ByArtPC      []wirePC
	ByFunc       []wireStr
	ByFuncIncl   []wireStr
	ByLine       []wireLine
	ByObj        []wireObj
	ByMember     []wireMember
	CallerOf     []wireEdge
	CalleeOf     []wireEdge
	TotalPerEv   [hwc.NumEvents]uint64
	UnknownPerEv []wireUnknown
}

func flattenPC(m map[uint64]*Metrics) []wirePC {
	out := make([]wirePC, 0, len(m))
	for k, v := range m {
		out = append(out, wirePC{PC: k, M: *v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PC < out[j].PC })
	return out
}

func flattenStr(m map[string]*Metrics) []wireStr {
	out := make([]wireStr, 0, len(m))
	for k, v := range m {
		out = append(out, wireStr{Name: k, M: *v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func flattenEdges(m map[string]map[string]*Metrics) []wireEdge {
	var out []wireEdge
	for a, inner := range m {
		for b, v := range inner {
			out = append(out, wireEdge{A: a, B: b, M: *v})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// encodePartial serializes one partial aggregate.
func encodePartial(p *partial) ([]byte, error) {
	w := wirePartial{
		Version:    partialWireVersion,
		EAEvents:   p.eaEvents,
		ByPC:       flattenPC(p.byPC),
		ByArtPC:    flattenPC(p.byArtPC),
		ByFunc:     flattenStr(p.byFunc),
		ByFuncIncl: flattenStr(p.byFuncIncl),
		CallerOf:   flattenEdges(p.callerOf),
		CalleeOf:   flattenEdges(p.calleeOf),
		TotalPerEv: p.totalPerEv,
	}
	for k, v := range p.byLine {
		w.ByLine = append(w.ByLine, wireLine{File: k.file, Line: k.line, M: *v})
	}
	sort.Slice(w.ByLine, func(i, j int) bool {
		if w.ByLine[i].File != w.ByLine[j].File {
			return w.ByLine[i].File < w.ByLine[j].File
		}
		return w.ByLine[i].Line < w.ByLine[j].Line
	})
	for k, v := range p.byObj {
		w.ByObj = append(w.ByObj, wireObj{Obj: k, M: *v})
	}
	sort.Slice(w.ByObj, func(i, j int) bool {
		if w.ByObj[i].Obj.Kind != w.ByObj[j].Obj.Kind {
			return w.ByObj[i].Obj.Kind < w.ByObj[j].Obj.Kind
		}
		return w.ByObj[i].Obj.Type < w.ByObj[j].Obj.Type
	})
	for k, v := range p.byMember {
		w.ByMember = append(w.ByMember, wireMember{Type: k.typ, Member: k.member, M: *v})
	}
	sort.Slice(w.ByMember, func(i, j int) bool {
		if w.ByMember[i].Type != w.ByMember[j].Type {
			return w.ByMember[i].Type < w.ByMember[j].Type
		}
		return w.ByMember[i].Member < w.ByMember[j].Member
	})
	for ev := range p.unknownPerEv {
		for k, n := range p.unknownPerEv[ev] {
			w.UnknownPerEv = append(w.UnknownPerEv, wireUnknown{Ev: ev, Kind: k, N: n})
		}
	}
	sort.Slice(w.UnknownPerEv, func(i, j int) bool {
		if w.UnknownPerEv[i].Ev != w.UnknownPerEv[j].Ev {
			return w.UnknownPerEv[i].Ev < w.UnknownPerEv[j].Ev
		}
		return w.UnknownPerEv[i].Kind < w.UnknownPerEv[j].Kind
	})
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&w); err != nil {
		return nil, fmt.Errorf("encoding partial: %w", err)
	}
	return buf.Bytes(), nil
}

// decodePartial deserializes a wire partial back into the merge-ready
// form. Decoding never panics on corrupted bytes.
func decodePartial(data []byte) (p *partial, err error) {
	defer func() {
		if r := recover(); r != nil {
			p, err = nil, fmt.Errorf("corrupted partial: %v", r)
		}
	}()
	var w wirePartial
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return nil, fmt.Errorf("corrupted partial: %w", err)
	}
	if w.Version != partialWireVersion {
		return nil, fmt.Errorf("partial wire version %d, want %d", w.Version, partialWireVersion)
	}
	p = newPartial()
	p.eaEvents = w.EAEvents
	for _, e := range w.ByPC {
		m := e.M
		p.byPC[e.PC] = &m
	}
	for _, e := range w.ByArtPC {
		m := e.M
		p.byArtPC[e.PC] = &m
	}
	for _, e := range w.ByFunc {
		m := e.M
		p.byFunc[e.Name] = &m
	}
	for _, e := range w.ByFuncIncl {
		m := e.M
		p.byFuncIncl[e.Name] = &m
	}
	for _, e := range w.ByLine {
		m := e.M
		p.byLine[lineKey{e.File, e.Line}] = &m
	}
	for _, e := range w.ByObj {
		m := e.M
		p.byObj[e.Obj] = &m
	}
	for _, e := range w.ByMember {
		m := e.M
		p.byMember[memberKey{e.Type, e.Member}] = &m
	}
	for _, e := range w.CallerOf {
		if p.callerOf[e.A] == nil {
			p.callerOf[e.A] = make(map[string]*Metrics)
		}
		m := e.M
		p.callerOf[e.A][e.B] = &m
	}
	for _, e := range w.CalleeOf {
		if p.calleeOf[e.A] == nil {
			p.calleeOf[e.A] = make(map[string]*Metrics)
		}
		m := e.M
		p.calleeOf[e.A][e.B] = &m
	}
	p.totalPerEv = w.TotalPerEv
	for _, u := range w.UnknownPerEv {
		if u.Ev < 0 || u.Ev >= len(p.unknownPerEv) {
			return nil, fmt.Errorf("corrupted partial: event index %d out of range", u.Ev)
		}
		p.unknownPerEv[u.Ev][u.Kind] += u.N
	}
	return p, nil
}
