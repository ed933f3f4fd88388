package core

import (
	"context"
	"runtime"
	"testing"

	"dsprof/internal/cc"
	"dsprof/internal/collect"
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
