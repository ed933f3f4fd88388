package objtrack

// report.go plugs the object-centric analyses into the analyzer's report
// registry, the same extension seam the advisor uses. Registering here
// means "site-heat", "obj-timeline" and "dead-objects" render
// byte-identically through every consumer — erprint command tokens,
// profd's HTTP report endpoint, and the cluster coordinator's
// distributed reduction all dispatch through analyzer.Render.

import (
	"fmt"
	"io"
	"sort"

	"dsprof/internal/analyzer"
	"dsprof/internal/hwc"
)

func init() {
	analyzer.RegisterReport(analyzer.RegisteredReport{
		Name: "site-heat",
		Desc: "allocation sites ranked by joined counter events",
		Text: renderSiteHeat,
		JSON: siteHeatJSON,
	})
	analyzer.RegisterReport(analyzer.RegisteredReport{
		Name:     "obj-timeline",
		NeedsArg: true,
		Desc:     "obj-timeline=FN: per-instance access timelines for blocks allocated in FN",
		Text:     renderTimeline,
		JSON:     timelineJSON,
	})
	analyzer.RegisterReport(analyzer.RegisteredReport{
		Name: "dead-objects",
		Desc: "dead-on-arrival / write-only / single-use heap blocks with byte counts",
		Text: renderDeadObjects,
		JSON: deadObjectsJSON,
	})
}

// rankSites orders sites for presentation: by the rank event's joined
// overflows descending (total joined events when no counter was
// collected), site PC ascending on ties.
func rankSites(sites []Site, rank hwc.Event) []Site {
	out := make([]Site, len(sites))
	copy(out, sites)
	weight := func(s *Site) uint64 {
		if rank == hwc.EvNone {
			return s.Total
		}
		return s.Events[rank]
	}
	sort.SliceStable(out, func(i, j int) bool {
		wi, wj := weight(&out[i]), weight(&out[j])
		if wi != wj {
			return wi > wj
		}
		return out[i].PC < out[j].PC
	})
	return out
}

func provHeader(w io.Writer, idx *Index) {
	fmt.Fprintf(w, "provenance: %d allocation records across %d sites\n", idx.Records, len(idx.Sites))
	fmt.Fprintf(w, "joined %d of %d EA-carrying events (%d outside known heap blocks)\n",
		idx.Joined, idx.Joined+idx.Unjoined, idx.Unjoined)
}

// --- site-heat ---

func renderSiteHeat(a *analyzer.Analyzer, w io.Writer, arg string, opts analyzer.RenderOpts) error {
	idx, err := Build(a)
	if err != nil {
		return err
	}
	rank := RankEvent(a)
	rankName := "joined events"
	if rank != hwc.EvNone {
		rankName = rank.Title()
	}
	fmt.Fprintf(w, "Allocation-site heat: ranked by %s\n", rankName)
	provHeader(w, idx)
	fmt.Fprintf(w, "\n")
	cols := a.Columns()
	for _, ev := range cols {
		fmt.Fprintf(w, "%10s %6s  ", ev.Short(), "")
	}
	fmt.Fprintf(w, "%7s %10s %10s  Site\n", "Allocs", "Bytes", "Live")
	for range cols {
		fmt.Fprintf(w, "%10s %6s  ", "count", "%")
	}
	fmt.Fprintf(w, "\n")

	// Column percentages are shares of the joined events, i.e. of the
	// heap-resident portion of each metric — not of the whole program.
	var joinedTotal [hwc.NumEvents]uint64
	for i := range idx.Sites {
		for ev, n := range idx.Sites[i].Events {
			joinedTotal[ev] += n
		}
	}
	n := opts.TopN
	ranked := rankSites(idx.Sites, rank)
	for i, s := range ranked {
		if i >= n {
			fmt.Fprintf(w, "... %d more site(s)\n", len(ranked)-n)
			break
		}
		for _, ev := range cols {
			pct := 0.0
			if joinedTotal[ev] > 0 {
				pct = 100 * float64(s.Events[ev]) / float64(joinedTotal[ev])
			}
			fmt.Fprintf(w, "%10d %5.1f%%  ", a.Count(ev, s.Events[ev]), pct)
		}
		fmt.Fprintf(w, "%7d %10d %10d  %s\n", s.Allocs, s.Bytes, s.LiveBytes, SiteName(a, s.PC))
	}
	return nil
}

type siteJSON struct {
	PC        string            `json:"pc"`
	Name      string            `json:"name"`
	Func      string            `json:"func"`
	Allocs    int               `json:"allocs"`
	Bytes     uint64            `json:"bytes"`
	LiveBytes uint64            `json:"liveBytes"`
	Total     uint64            `json:"joinedEvents"`
	Events    map[string]uint64 `json:"events,omitempty"`
}

func siteToJSON(a *analyzer.Analyzer, s *Site) siteJSON {
	out := siteJSON{
		PC:        fmt.Sprintf("0x%08x", s.PC),
		Name:      SiteName(a, s.PC),
		Func:      SiteFunc(a, s.PC),
		Allocs:    s.Allocs,
		Bytes:     s.Bytes,
		LiveBytes: s.LiveBytes,
		Total:     s.Total,
	}
	for _, ev := range a.Columns() {
		if out.Events == nil {
			out.Events = make(map[string]uint64)
		}
		out.Events[ev.String()] = a.Count(ev, s.Events[ev])
	}
	return out
}

func siteHeatJSON(a *analyzer.Analyzer, arg string, opts analyzer.RenderOpts) (any, error) {
	idx, err := Build(a)
	if err != nil {
		return nil, err
	}
	rank := RankEvent(a)
	ranked := rankSites(idx.Sites, rank)
	if len(ranked) > opts.TopN {
		ranked = ranked[:opts.TopN]
	}
	sites := make([]siteJSON, 0, len(ranked))
	for i := range ranked {
		sites = append(sites, siteToJSON(a, &ranked[i]))
	}
	return map[string]any{
		"rankedBy": rank.String(),
		"records":  idx.Records,
		"joined":   idx.Joined,
		"unjoined": idx.Unjoined,
		"sites":    sites,
	}, nil
}

// --- obj-timeline ---

// timelineBuckets is the fixed width of the ASCII access timeline.
const timelineBuckets = 48

// timelineSpan is the cycle axis shared by every instance row: the
// earliest birth to the latest of any death, birth, or joined event.
func timelineSpan(idx *Index, cycles [][]uint64) (lo, hi uint64) {
	first := true
	grow := func(c uint64) {
		if first {
			lo, hi, first = c, c, false
			return
		}
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	for i := range idx.Instances {
		in := &idx.Instances[i]
		grow(in.Birth)
		if in.Freed {
			grow(in.Death)
		}
		for _, c := range cycles[i] {
			grow(c)
		}
	}
	return lo, hi
}

// joinCycles replays the EA-event stream through the index, returning
// each instance's joined event cycle stamps in stream order.
func joinCycles(a *analyzer.Analyzer, idx *Index) [][]uint64 {
	cycles := make([][]uint64, len(idx.Instances))
	for _, ae := range a.EAEvents() {
		if i := idx.Lookup(ae.EA, ae.Cycles); i >= 0 {
			cycles[i] = append(cycles[i], ae.Cycles)
		}
	}
	return cycles
}

// bucketize folds event cycle stamps onto the shared axis.
func bucketize(evCycles []uint64, lo, hi uint64) [timelineBuckets]int {
	var out [timelineBuckets]int
	span := hi - lo
	for _, c := range evCycles {
		if c < lo || c > hi {
			continue
		}
		b := 0
		if span > 0 {
			b = int((c - lo) * (timelineBuckets - 1) / span)
		}
		out[b]++
	}
	return out
}

// timelineRow renders one instance's life as a fixed-width strip:
// ' ' before birth or after death, '-' alive but quiet, digits 1-9 for
// joined events in the bucket, '*' for ten or more.
func timelineRow(in *Instance, buckets [timelineBuckets]int, lo, hi uint64) string {
	span := hi - lo
	pos := func(c uint64) int {
		if span == 0 {
			return 0
		}
		if c < lo {
			return 0
		}
		if c > hi {
			return timelineBuckets - 1
		}
		return int((c - lo) * (timelineBuckets - 1) / span)
	}
	born := pos(in.Birth)
	died := timelineBuckets - 1
	if in.Freed {
		died = pos(in.Death)
	}
	row := make([]byte, timelineBuckets)
	for b := 0; b < timelineBuckets; b++ {
		switch n := buckets[b]; {
		case n >= 10:
			row[b] = '*'
		case n > 0:
			row[b] = byte('0' + n)
		case b >= born && b <= died:
			row[b] = '-'
		default:
			row[b] = ' '
		}
	}
	return string(row)
}

// funcInstances returns the indexes of instances allocated inside the
// named function, in allocation order.
func funcInstances(a *analyzer.Analyzer, idx *Index, fn string) []int {
	var is []int
	for i := range idx.Instances {
		if SiteFunc(a, idx.Instances[i].Site) == fn {
			is = append(is, i)
		}
	}
	return is
}

func renderTimeline(a *analyzer.Analyzer, w io.Writer, arg string, opts analyzer.RenderOpts) error {
	idx, err := Build(a)
	if err != nil {
		return err
	}
	if arg == "" {
		return fmt.Errorf("objtrack: obj-timeline needs a function name (obj-timeline=FN)")
	}
	is := funcInstances(a, idx, arg)
	if len(is) == 0 {
		return fmt.Errorf("objtrack: no heap blocks allocated in function %q", arg)
	}
	cycles := joinCycles(a, idx)
	lo, hi := timelineSpan(idx, cycles)
	fmt.Fprintf(w, "Object timelines for function %s: %d instance(s)\n", arg, len(is))
	provHeader(w, idx)
	fmt.Fprintf(w, "time axis: cycle %d .. %d, %d buckets (' ' unborn/freed, '-' quiet, 1-9/'*' joined events)\n\n",
		lo, hi, timelineBuckets)
	n := opts.TopN
	for row, i := range is {
		if row >= n {
			fmt.Fprintf(w, "... %d more instance(s)\n", len(is)-n)
			break
		}
		in := &idx.Instances[i]
		death := "live at exit"
		if in.Freed {
			death = fmt.Sprintf("freed %d", in.Death)
		}
		fmt.Fprintf(w, "seq %6d  %8d bytes  addr 0x%08x  born %d  %s  events %d (r %d / w %d)\n",
			in.Seq, in.Size, in.Addr, in.Birth, death, in.Total, in.Reads, in.Writes)
		fmt.Fprintf(w, "  |%s|\n", timelineRow(in, bucketize(cycles[i], lo, hi), lo, hi))
	}
	return nil
}

func timelineJSON(a *analyzer.Analyzer, arg string, opts analyzer.RenderOpts) (any, error) {
	idx, err := Build(a)
	if err != nil {
		return nil, err
	}
	if arg == "" {
		return nil, fmt.Errorf("objtrack: obj-timeline needs a function name (obj-timeline=FN)")
	}
	is := funcInstances(a, idx, arg)
	if len(is) == 0 {
		return nil, fmt.Errorf("objtrack: no heap blocks allocated in function %q", arg)
	}
	cycles := joinCycles(a, idx)
	lo, hi := timelineSpan(idx, cycles)
	if len(is) > opts.TopN {
		is = is[:opts.TopN]
	}
	type instJSON struct {
		Seq     int    `json:"seq"`
		Site    string `json:"site"`
		Addr    string `json:"addr"`
		Size    uint64 `json:"size"`
		Birth   uint64 `json:"birth"`
		Death   uint64 `json:"death,omitempty"`
		Freed   bool   `json:"freed"`
		Total   uint64 `json:"joinedEvents"`
		Reads   uint64 `json:"reads"`
		Writes  uint64 `json:"writes"`
		Buckets []int  `json:"buckets"`
	}
	out := make([]instJSON, 0, len(is))
	for _, i := range is {
		in := &idx.Instances[i]
		b := bucketize(cycles[i], lo, hi)
		out = append(out, instJSON{
			Seq:   in.Seq,
			Site:  SiteName(a, in.Site),
			Addr:  fmt.Sprintf("0x%08x", in.Addr),
			Size:  in.Size,
			Birth: in.Birth,
			Death: in.Death,
			Freed: in.Freed,
			Total: in.Total, Reads: in.Reads, Writes: in.Writes,
			Buckets: b[:],
		})
	}
	return map[string]any{
		"function":  arg,
		"cycleLo":   lo,
		"cycleHi":   hi,
		"instances": out,
	}, nil
}

// --- dead-objects ---

// deadClass is one liveness defect class with exact byte accounting.
type deadClass struct {
	name      string
	desc      string
	instances []int
	bytes     uint64 // requested bytes over all flagged blocks
	leaked    uint64 // flagged bytes never freed
}

// classifyDead partitions instances into the paper-motivated liveness
// defect classes. Classes are exclusive in the order listed: a block no
// sampled event ever touched is dead-on-arrival even if also unfreed.
func classifyDead(idx *Index) []deadClass {
	classes := []deadClass{
		{name: "dead-on-arrival", desc: "no sampled event ever landed in the block"},
		{name: "write-only", desc: "sampled stores but never a sampled load"},
		{name: "single-use", desc: "exactly one sampled event over the block's whole life"},
	}
	for i := range idx.Instances {
		in := &idx.Instances[i]
		var c *deadClass
		switch {
		case in.Total == 0:
			c = &classes[0]
		case in.Writes > 0 && in.Reads == 0:
			c = &classes[1]
		case in.Total == 1:
			c = &classes[2]
		default:
			continue
		}
		c.instances = append(c.instances, i)
		c.bytes += in.Size
		if !in.Freed {
			c.leaked += in.Size
		}
	}
	return classes
}

// deadSites aggregates one class's bytes per allocation site, largest
// first (site PC breaks ties).
func deadSites(idx *Index, c *deadClass) []Site {
	byPC := make(map[uint64]*Site)
	for _, i := range c.instances {
		in := &idx.Instances[i]
		s := byPC[in.Site]
		if s == nil {
			s = &Site{PC: in.Site}
			byPC[in.Site] = s
		}
		s.Allocs++
		s.Bytes += in.Size
		if !in.Freed {
			s.LiveBytes += in.Size
		}
	}
	out := make([]Site, 0, len(byPC))
	for _, s := range byPC {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bytes != out[j].Bytes {
			return out[i].Bytes > out[j].Bytes
		}
		return out[i].PC < out[j].PC
	})
	return out
}

func renderDeadObjects(a *analyzer.Analyzer, w io.Writer, arg string, opts analyzer.RenderOpts) error {
	idx, err := Build(a)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Dead-object analysis\n")
	provHeader(w, idx)
	n := opts.TopN
	for _, c := range classifyDead(idx) {
		fmt.Fprintf(w, "\n%s (%s): %d block(s), %d bytes, %d leaked\n",
			c.name, c.desc, len(c.instances), c.bytes, c.leaked)
		sites := deadSites(idx, &c)
		for i, s := range sites {
			if i >= n {
				fmt.Fprintf(w, "  ... %d more site(s)\n", len(sites)-n)
				break
			}
			fmt.Fprintf(w, "  %10d bytes  %4d block(s)  %10d leaked  %s\n",
				s.Bytes, s.Allocs, s.LiveBytes, SiteName(a, s.PC))
		}
	}
	return nil
}

func deadObjectsJSON(a *analyzer.Analyzer, arg string, opts analyzer.RenderOpts) (any, error) {
	idx, err := Build(a)
	if err != nil {
		return nil, err
	}
	type classJSON struct {
		Name   string     `json:"name"`
		Desc   string     `json:"desc"`
		Blocks int        `json:"blocks"`
		Bytes  uint64     `json:"bytes"`
		Leaked uint64     `json:"leakedBytes"`
		Sites  []siteJSON `json:"sites,omitempty"`
	}
	n := opts.TopN
	var out []classJSON
	for _, c := range classifyDead(idx) {
		cj := classJSON{Name: c.name, Desc: c.desc, Blocks: len(c.instances), Bytes: c.bytes, Leaked: c.leaked}
		sites := deadSites(idx, &c)
		if len(sites) > n {
			sites = sites[:n]
		}
		for i := range sites {
			cj.Sites = append(cj.Sites, siteToJSON(a, &sites[i]))
		}
		out = append(out, cj)
	}
	return map[string]any{
		"records":  idx.Records,
		"joined":   idx.Joined,
		"unjoined": idx.Unjoined,
		"classes":  out,
	}, nil
}
