package core

import (
	"context"
	"path/filepath"
	"runtime"
	"testing"

	"dsprof/internal/analyzer"
	"dsprof/internal/cc"
	"dsprof/internal/collect"
	"dsprof/internal/experiment"
)

// TestDenseCollectAllocations bounds the heap allocations dense
// collection makes per delivered overflow and per clock tick. It
// collects the n-body kernel at the advisor benchmark's scale (300
// papers on the study machine) once sparse (+ecstall,1000003, no clock)
// and once per dense arming, counts the mallocs of each RunContext, and
// divides the difference by the difference in delivered events. Setup,
// program translation and the experiment's final slices cost the same
// few allocations in both runs, so the quotient is what each extra
// overflow or tick costs: fewer than 0.1 allocations, which holds only
// if delivery reuses one event record, callstacks and records land in
// chunked storage, and blocks translated at new resume PCs allocate
// nothing.
func TestDenseCollectAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	target, err := StudyParams{Workload: NBody, Size: 300, Seed: DefaultSeed, HWCProf: true}.Target()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := cc.Compile(target.Sources, target.Options)
	if err != nil {
		t.Fatal(err)
	}
	// collect1 runs one collect and returns its mallocs and its delivered
	// overflows and clock ticks.
	collect1 := func(spec string, clock uint64) (mallocs, events, ticks uint64) {
		t.Helper()
		opts := collect.Options{
			Machine:             target.Machine,
			Input:               target.Input,
			ClockProfile:        clock > 0,
			ClockIntervalCycles: clock,
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res, err := CollectRun(context.Background(), prog, spec, opts)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		events = uint64(res.Exp.EventCount(0) + res.Exp.EventCount(1))
		return after.Mallocs - before.Mallocs, events, uint64(len(res.Exp.Clock))
	}
	const sparse = "+ecstall,1000003"
	baseMallocs, baseEvents, _ := collect1(sparse, 0)

	perExtra := func(name, unit string, mallocs, n, baseN uint64) {
		t.Helper()
		if n <= baseN {
			t.Fatalf("%s: %d %ss, no more than the sparse run's %d", name, n, unit, baseN)
		}
		per := (float64(mallocs) - float64(baseMallocs)) / float64(n-baseN)
		t.Logf("%s: %d mallocs for %d %ss (sparse: %d for %d): %.3f allocations per %s",
			name, mallocs, n, unit, baseMallocs, baseN, per, unit)
		if per >= 0.1 {
			t.Errorf("%s: %.3f heap allocations per %s, want < 0.1", name, per, unit)
		}
	}
	for _, spec := range []string{"+ecstall,211,+ecrm,31", "+ecref,101,+dtlbm,13"} {
		mallocs, events, _ := collect1(spec, 0)
		perExtra(spec, "overflow", mallocs, events, baseEvents)
	}
	mallocs, _, ticks := collect1(sparse, 9001)
	perExtra("clock 9001", "tick", mallocs, ticks, 0)
}

// TestReductionRetainedHeap bounds the heap a reduced analyzer retains
// per counter event it reduced. It collects the n-body advisor
// benchmark's baseline pair (300 papers on the study machine; A: clock
// ticks every 9001 cycles plus +ecstall,211,+ecrm,31, B:
// +ecref,101,+dtlbm,13) and reduces it serially twice, once over the
// experiments in memory and once over the same experiments saved and
// opened from disk. The live heap the reduction adds (HeapAlloc after a
// GC, before vs after) divided by the reduced events must stay under
// 100 B: the analyzer keeps its aggregates and one small record per
// EA-carrying event for the address-space and object reports, which
// holds only if it keeps no other per-event list and no record pins the
// callstacks of a decoded shard.
func TestReductionRetainedHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes heap sizes")
	}
	target, err := StudyParams{Workload: NBody, Size: 300, Seed: DefaultSeed, HWCProf: true}.Target()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := cc.Compile(target.Sources, target.Options)
	if err != nil {
		t.Fatal(err)
	}
	collect1 := func(spec string, clock uint64) *experiment.Experiment {
		t.Helper()
		res, err := CollectRun(context.Background(), prog, spec, collect.Options{
			Machine:             target.Machine,
			Input:               target.Input,
			ClockProfile:        clock > 0,
			ClockIntervalCycles: clock,
		})
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		return res.Exp
	}
	exps := []*experiment.Experiment{
		collect1("+ecstall,211,+ecrm,31", 9001),
		collect1("+ecref,101,+dtlbm,13", 0),
	}
	var events int
	for _, e := range exps {
		events += e.EventCount(0) + e.EventCount(1)
	}
	retained := func(name string, pair []*experiment.Experiment) {
		t.Helper()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		a, err := analyzer.NewWithConfig(analyzer.Config{Workers: 1}, pair...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(a)
		per := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(events)
		t.Logf("%s: %d counter events (%d with an EA), %.1f B retained per event",
			name, events, len(a.EAEvents()), per)
		if per >= 100 {
			t.Errorf("%s: the reduction retains %.1f B per event, want < 100", name, per)
		}
	}
	retained("in memory", exps)

	opened := make([]*experiment.Experiment, len(exps))
	for i, e := range exps {
		dir := filepath.Join(t.TempDir(), "exp.er")
		if err := e.Save(dir); err != nil {
			t.Fatal(err)
		}
		if opened[i], err = experiment.Open(dir); err != nil {
			t.Fatal(err)
		}
	}
	exps = nil // only the opened pair stays live while it is reduced
	retained("opened from disk", opened)
}
