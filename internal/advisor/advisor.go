// Package advisor closes the loop the paper leaves open: §3.3 shows the
// authors reading per-member profiles and re-laying-out MCF's node and
// arc structs by hand. The advisor automates that step — it consumes a
// data-space profile, reconstructs per-member heat and a member
// co-access affinity matrix, and emits ranked, machine-applicable layout
// recommendations (member reordering, hot/cold partitioning, padding to
// a cache-friendly size). Each recommendation compiles to a
// cc.LayoutOverride, so it can be applied on recompile and validated by
// a measured re-run (validate.go).
package advisor

import (
	"fmt"
	"sort"

	"dsprof/internal/analyzer"
	"dsprof/internal/cc"
	"dsprof/internal/dwarf"
	"dsprof/internal/hwc"
	"dsprof/internal/objtrack"
)

// Options tune the advisor.
type Options struct {
	// Metric is the event recommendations optimize for; EvNone picks the
	// best available automatically (E$ stall cycles when collected).
	Metric hwc.Event
	// Window is the co-access window in events (0 = default 16).
	Window int
	// MinShare is the minimum share of the metric a struct must carry to
	// be considered (0 = default 0.05).
	MinShare float64
	// HotCoverage is the fraction of a struct's events its hot member
	// set must cover (0 = default 0.90).
	HotCoverage float64
	// MaxRecs caps the recommendation list (0 = unlimited).
	MaxRecs int
	// SitePools adds allocation-site split-pool recommendations, which
	// need provenance records in the experiments (objtrack). Off by
	// default so the classic "advice" report is byte-identical whether or
	// not a run collected provenance.
	SitePools bool
}

// Check reports an option outside its range: a negative Window or
// MaxRecs, or a MinShare outside [0, 1] (NaN included, which would
// admit every struct). Zero selects the default.
func (o Options) Check() error {
	switch {
	case o.Window < 0:
		return fmt.Errorf("advisor: negative window %d", o.Window)
	case !(o.MinShare >= 0 && o.MinShare <= 1):
		return fmt.Errorf("advisor: min share %g outside [0, 1]", o.MinShare)
	case o.MaxRecs < 0:
		return fmt.Errorf("advisor: negative recommendation cap %d", o.MaxRecs)
	}
	return nil
}

func (o Options) withDefaults() Options {
	if o.Window <= 0 {
		o.Window = 16
	}
	if o.MinShare == 0 {
		o.MinShare = 0.05
	}
	if o.HotCoverage == 0 {
		o.HotCoverage = 0.90
	}
	return o
}

// Recommendation kinds.
const (
	KindReorder   = "reorder"
	KindSplit     = "split"
	KindPad       = "pad"
	KindSplitPool = "split-pool"
)

// Recommendation is one proposed layout change, machine-readable.
type Recommendation struct {
	Kind   string  `json:"kind"`   // reorder | split | pad
	Struct string  `json:"struct"` // struct type name
	Score  float64 `json:"score"`  // ranking weight, higher is better
	Share  float64 `json:"share"`  // struct's share of the advice metric

	// Order is the proposed member order (reorder and split).
	Order []string `json:"order,omitempty"`
	// Hot and Cold partition Order for split recommendations.
	Hot  []string `json:"hot,omitempty"`
	Cold []string `json:"cold,omitempty"`
	// PadTo is the proposed padded size (pad).
	PadTo int64 `json:"padTo,omitempty"`

	Size      int64  `json:"size"`               // current struct size
	HotBytes  int64  `json:"hotBytes,omitempty"` // packed bytes of the hot set
	Rationale string `json:"rationale"`

	// Sites is the per-allocation-site evidence behind a split-pool
	// recommendation (pool.go).
	Sites []PoolSite `json:"sites,omitempty"`
}

// Override compiles the recommendation into the layout override the
// compiler applies. A split is validated through its reordering effect:
// the hot members are packed at the front so they share lines, which is
// the measurable part of a hot/cold partition a compiler can apply
// without introducing indirection (a true split changes source types).
// Split-pool recommendations are advisory-only (they propose changing
// allocation strategy, not layout) and compile to no override.
func (r *Recommendation) Override() *cc.LayoutOverride {
	switch r.Kind {
	case KindReorder, KindSplit:
		return &cc.LayoutOverride{Order: r.Order}
	case KindPad:
		return &cc.LayoutOverride{PadTo: r.PadTo}
	}
	return nil
}

// Advice is the full output of one advisor run.
type Advice struct {
	Metric   string           `json:"metric"`
	Window   int              `json:"window"`
	MinShare float64          `json:"minShare"`
	Recs     []Recommendation `json:"recommendations"`
}

// AutoMetric picks the advice metric for an analysis: the paper
// optimizes for E$ stall time, so that wins when collected; otherwise
// the most consequential collected memory metric.
func AutoMetric(a *analyzer.Analyzer) (hwc.Event, error) {
	for _, ev := range []hwc.Event{hwc.EvECStall, hwc.EvECRdMiss, hwc.EvDCRdMiss, hwc.EvDTLBMiss, hwc.EvECRef} {
		if a.HasEvent(ev) {
			return ev, nil
		}
	}
	return hwc.EvNone, fmt.Errorf("advisor: no memory-related counter data collected")
}

// Analyze runs the advisor over a loaded analysis and returns ranked
// recommendations. The result is deterministic for fixed experiments
// and options.
func Analyze(a *analyzer.Analyzer, opts Options) (*Advice, error) {
	opts = opts.withDefaults()
	metric := opts.Metric
	if metric == hwc.EvNone {
		var err error
		if metric, err = AutoMetric(a); err != nil {
			return nil, err
		}
	}
	if !a.HasEvent(metric) {
		return nil, fmt.Errorf("advisor: metric %v not collected", metric)
	}
	totalEv := a.Total().Events[metric]
	if totalEv == 0 {
		return nil, fmt.Errorf("advisor: no %v events attributed", metric)
	}

	// Site-pool advice needs the provenance join; build it once. A run
	// without provenance records is an error here (not a silent no-op) so
	// the "pool-advice" report fails the same way everywhere.
	var idx *objtrack.Index
	if opts.SitePools {
		var err error
		if idx, err = objtrack.Build(a); err != nil {
			return nil, err
		}
	}

	adv := &Advice{Metric: metric.String(), Window: opts.Window, MinShare: opts.MinShare}
	for id := dwarf.TypeID(1); int(id) < len(a.Tab.Types); id++ {
		ty := a.Tab.TypeByID(id)
		if ty.Kind != dwarf.KindStruct || len(ty.Members) < 2 || ty.Size <= 0 {
			continue
		}
		structM := a.ObjMetrics(id)
		share := float64(structM.Events[metric]) / float64(totalEv)
		if share < opts.MinShare {
			continue
		}
		recs, err := adviseStruct(a, id, ty, metric, share, opts)
		if err != nil {
			return nil, err
		}
		adv.Recs = append(adv.Recs, recs...)
		if idx != nil {
			if rec, ok := advisePool(a, idx, ty, metric, share, opts); ok {
				adv.Recs = append(adv.Recs, rec)
			}
		}
	}
	sort.SliceStable(adv.Recs, func(i, j int) bool {
		ri, rj := &adv.Recs[i], &adv.Recs[j]
		if ri.Score != rj.Score {
			return ri.Score > rj.Score
		}
		if ri.Struct != rj.Struct {
			return ri.Struct < rj.Struct
		}
		return ri.Kind < rj.Kind
	})
	if opts.MaxRecs > 0 && len(adv.Recs) > opts.MaxRecs {
		adv.Recs = adv.Recs[:opts.MaxRecs]
	}
	return adv, nil
}

// adviseStruct derives the recommendations for one hot struct.
func adviseStruct(a *analyzer.Analyzer, id dwarf.TypeID, ty *dwarf.Type, metric hwc.Event, share float64, opts Options) ([]Recommendation, error) {
	heats, err := a.MemberHeats(id)
	if err != nil {
		return nil, err
	}
	am, err := a.MemberAffinity(id, opts.Window)
	if err != nil {
		return nil, err
	}
	order := packOrder(a, heats, am, metric)

	var structEv uint64
	for i := range heats {
		structEv += heats[i].M.Events[metric]
	}

	// Hot prefix: the smallest prefix of the packed order covering the
	// hot-coverage fraction of the struct's events.
	var acc uint64
	hotN := len(order)
	for k, mi := range order {
		acc += heats[mi].M.Events[metric]
		if float64(acc) >= opts.HotCoverage*float64(structEv) {
			hotN = k + 1
			break
		}
	}

	// Geometry of the packed layout vs the profiled one.
	newOffs, newSize := packLayout(a, id, heats, order)
	hotBytes := int64(0)
	origReach := int64(0)
	for k := 0; k < hotN; k++ {
		mi := order[k]
		if end := newOffs[k] + heats[mi].Size; end > hotBytes {
			hotBytes = end
		}
		if end := heats[mi].Off + heats[mi].Size; end > origReach {
			origReach = end
		}
	}

	names := make([]string, len(order))
	reordered := false
	for k, mi := range order {
		names[k] = heats[mi].Name
		if mi != k {
			reordered = true
		}
	}

	var recs []Recommendation
	if reordered && hotBytes < origReach {
		recs = append(recs, Recommendation{
			Kind:   KindReorder,
			Struct: ty.Name,
			Score:  share * (1 - float64(hotBytes)/float64(origReach)),
			Share:  share,
			Order:  names,
			Size:   ty.Size, HotBytes: hotBytes,
			Rationale: fmt.Sprintf("packing the %d hottest co-accessed members first shrinks the hot reach from %d to %d bytes (struct is %.1f%% of %v)",
				hotN, origReach, hotBytes, 100*share, metric),
		})
	}
	if hotN < len(order) && hotBytes <= ty.Size/2 && newSize-hotBytes >= 8 {
		recs = append(recs, Recommendation{
			Kind:   KindSplit,
			Struct: ty.Name,
			Score:  share * float64(newSize-hotBytes) / float64(newSize),
			Share:  share,
			Order:  names,
			Hot:    names[:hotN],
			Cold:   names[hotN:],
			Size:   ty.Size, HotBytes: hotBytes,
			Rationale: fmt.Sprintf("%d of %d members carry %.0f%%+ of the struct's %v in %d of %d bytes; the cold %d bytes can live in a separate array (validated here via its reordering effect)",
				hotN, len(order), 100*opts.HotCoverage, metric, hotBytes, newSize, newSize-hotBytes),
		})
	}
	if rec, ok := padRec(a, ty, share); ok {
		recs = append(recs, rec)
	}
	return recs, nil
}

// packOrder computes the proposed member order greedily: seed with the
// densest member (metric events per byte), then repeatedly append the
// member with the strongest affinity to those already chosen, breaking
// ties by density and then by declaration order. Deterministic.
func packOrder(a *analyzer.Analyzer, heats []analyzer.MemberHeat, am *analyzer.AffinityMatrix, metric hwc.Event) []int {
	n := len(heats)
	s := analyzer.ByEvent(metric)
	density := make([]float64, n)
	for i := range heats {
		density[i] = heats[i].Density(a, s)
	}
	chosen := make([]int, 0, n)
	used := make([]bool, n)
	for len(chosen) < n {
		best, bestAff, bestDen := -1, uint64(0), 0.0
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			var aff uint64
			for _, c := range chosen {
				aff += am.Pair(i, c)
			}
			switch {
			case best < 0,
				aff > bestAff,
				aff == bestAff && density[i] > bestDen:
				best, bestAff, bestDen = i, aff, density[i]
			}
		}
		used[best] = true
		chosen = append(chosen, best)
	}
	return chosen
}

// packLayout lays the members out in the proposed order under the usual
// natural-alignment rules and returns each member's new offset (indexed
// like order) and the resulting struct size.
func packLayout(a *analyzer.Analyzer, id dwarf.TypeID, heats []analyzer.MemberHeat, order []int) ([]int64, int64) {
	offs := make([]int64, len(order))
	var off, maxAlign int64 = 0, 1
	for k, mi := range order {
		al := a.Tab.MemberAlign(id, mi)
		if al > maxAlign {
			maxAlign = al
		}
		off = (off + al - 1) &^ (al - 1)
		offs[k] = off
		off += heats[mi].Size
	}
	return offs, (off + maxAlign - 1) &^ (maxAlign - 1)
}

// padRec proposes padding the struct to the next power of two when a
// significant fraction of its instances straddle E$ lines — the paper's
// 120→128-byte node padding (§3.3).
func padRec(a *analyzer.Analyzer, ty *dwarf.Type, share float64) (Recommendation, bool) {
	st, err := a.SplitObjects(ty.Name)
	if err != nil || st.Fraction() < 0.10 {
		return Recommendation{}, false
	}
	p2 := nextPow2(ty.Size)
	if p2 == ty.Size || p2 > 2*ty.Size {
		return Recommendation{}, false
	}
	line := int64(st.LineBytes)
	if line%p2 != 0 {
		return Recommendation{}, false
	}
	return Recommendation{
		Kind:   KindPad,
		Struct: ty.Name,
		Score:  share * st.Fraction(),
		Share:  share,
		PadTo:  p2,
		Size:   ty.Size,
		Rationale: fmt.Sprintf("%.0f%% of %d-byte instances straddle a %d-byte E$ line; padding to %d bytes keeps every instance within one line",
			100*st.Fraction(), ty.Size, line, p2),
	}, true
}

func nextPow2(n int64) int64 {
	p := int64(1)
	for p < n {
		p <<= 1
	}
	return p
}
