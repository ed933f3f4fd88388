package advisor

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"dsprof/internal/cc"
	"dsprof/internal/experiment"
)

// TestValidateSchedule drives validate's schedule with a stub run: the
// results must equal a serial loop's whatever the worker count, each
// distinct recommended override must be collected once, and the
// speculative combined run must be used, skipped or discarded by the
// verdicts alone.
func TestValidateSchedule(t *testing.T) {
	recs := []Recommendation{
		{Kind: KindReorder, Struct: "node", Order: []string{"b", "a"}},
		{Kind: KindPad, Struct: "node", PadTo: 64},
		{Kind: KindSplitPool, Struct: "node"}, // no layout override: not re-run
		{Kind: KindSplit, Struct: "arc", Order: []string{"d", "c"}},
	}
	// pairs validates each split through the reorder beside it: five
	// recommendations, three distinct override sets.
	pairs := []Recommendation{
		{Kind: KindSplit, Struct: "node", Order: []string{"b", "a"}},
		{Kind: KindReorder, Struct: "node", Order: []string{"b", "a"}},
		{Kind: KindPad, Struct: "node", PadTo: 64},
		{Kind: KindReorder, Struct: "arc", Order: []string{"d", "c"}},
		{Kind: KindSplit, Struct: "arc", Order: []string{"d", "c"}},
	}
	// runs and guess are indexed by worker count; 0 and "" leave a
	// count or outcome that timing decides unchecked.
	cases := []struct {
		name   string
		recs   []Recommendation // nil means recs
		reject map[string]bool  // labels whose override set is rejected
		hold   string           // this run waits until the guess begins
		cancel bool
		runs   [3]int
		guess  [3]string
	}{
		{name: "all accepted",
			runs: [3]int{1: 4, 2: 4}, guess: [3]string{1: "used", 2: "used"}},
		{name: "first rejected", reject: map[string]bool{"reorder:node": true},
			runs: [3]int{1: 4}, guess: [3]string{1: "skipped"}},
		{name: "late rejection", reject: map[string]bool{"split:arc": true}, hold: "split:arc",
			runs: [3]int{1: 4, 2: 5}, guess: [3]string{1: "skipped", 2: "discarded"}},
		{name: "cancelled", cancel: true,
			runs: [3]int{1: 3, 2: 3}, guess: [3]string{1: "skipped", 2: "skipped"}},
		{name: "two duplicate pairs plus a pad", recs: pairs,
			runs: [3]int{1: 4, 2: 4}, guess: [3]string{1: "used", 2: "used"}},
		{name: "one distinct set", recs: pairs[:2],
			runs: [3]int{1: 2, 2: 2}, guess: [3]string{1: "used", 2: "used"}},
		{name: "rejected duplicated set", recs: pairs[:3], reject: map[string]bool{"split:node": true}, hold: "split:node",
			runs: [3]int{1: 3, 2: 4}, guess: [3]string{1: "skipped", 2: "discarded"}},
		{name: "duplicates cancelled", recs: pairs, cancel: true,
			runs: [3]int{1: 3, 2: 3}, guess: [3]string{1: "skipped", 2: "skipped"}},
	}
	for _, tc := range cases {
		recs := recs
		if tc.recs != nil {
			recs = tc.recs
		}
		// The override sets the rejected labels name.
		var rejects []map[string]cc.LayoutOverride
		for _, rec := range recs {
			if tc.reject[rec.Kind+":"+rec.Struct] {
				rejects = append(rejects, deref(map[string]*cc.LayoutOverride{rec.Struct: rec.Override()}))
			}
		}
		for _, workers := range []int{1, 2} {
			name := fmt.Sprintf("%s/%d workers", tc.name, workers)
			ctx, cancel := context.WithCancel(context.Background())
			if tc.cancel {
				cancel()
			}
			// grade depends on the override set only, as a real re-run
			// does; the label names the re-run's experiment.
			grade := func(ctx context.Context, ovs map[string]*cc.LayoutOverride, label string) RecResult {
				if err := ctx.Err(); err != nil {
					return RecResult{Verdict: VerdictRejected, Before: 100, Err: err.Error()}
				}
				r := RecResult{Verdict: VerdictAccepted, Before: 100, After: 100 - 10*uint64(len(ovs)), OutputOK: true,
					Exp: &experiment.Experiment{Meta: experiment.Meta{Label: label}}}
				for _, ov := range ovs {
					if ov.PadTo != 0 {
						r.After--
					}
				}
				for _, rej := range rejects {
					if reflect.DeepEqual(rej, deref(ovs)) {
						r.Verdict, r.After = VerdictRejected, 120
					}
				}
				return r
			}
			type runRec struct {
				label string
				ovs   map[string]cc.LayoutOverride
			}
			var (
				mu         sync.Mutex
				ran        []runRec // every run, in the order it began
				began      sync.Once
				guessBegan = make(chan struct{})
			)
			stub := func(ctx context.Context, ovs map[string]*cc.LayoutOverride, label string, analyze bool) RecResult {
				if analyze != (label == "combined") {
					t.Errorf("%s: run %q analyze=%v, want the full reduction for combined runs only", name, label, analyze)
				}
				mu.Lock()
				ran = append(ran, runRec{label, deref(ovs)})
				mu.Unlock()
				if label == "combined" {
					began.Do(func() { close(guessBegan) })
				}
				if workers > 1 && label == tc.hold {
					select {
					case <-guessBegan:
					case <-time.After(10 * time.Second):
						t.Errorf("%s: the guess never began", name)
					}
				}
				return grade(ctx, ovs, label)
			}

			// The serial result: one run per recommendation in order,
			// each under its own label, then the accepted overrides
			// combined.
			want := &Validation{}
			var accepted []Recommendation
			for _, rec := range recs {
				if rec.Override() == nil {
					continue
				}
				r := grade(ctx, map[string]*cc.LayoutOverride{rec.Struct: rec.Override()}, rec.Kind+":"+rec.Struct)
				r.Rec = rec
				want.Results = append(want.Results, r)
				if r.Verdict == VerdictAccepted {
					accepted = append(accepted, rec)
				}
			}
			if len(accepted) > 0 {
				c := grade(ctx, combine(accepted), "combined")
				want.Combined = &c
			}

			got := validate(ctx, recs, workers, stub)
			cancel()
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: validate = %+v (combined %+v), want the serial %+v (combined %+v)",
					name, got.Results, got.Combined, want.Results, want.Combined)
			}
			if tc.cancel {
				for _, r := range got.Results {
					if r.Err == "" {
						t.Errorf("%s: %s:%s carries no error", name, r.Rec.Kind, r.Rec.Struct)
					}
				}
				if got.Combined != nil {
					t.Errorf("%s: combined = %+v, want nil", name, got.Combined)
				}
			}
			if got.Combined != nil {
				keep := *got.Combined
				_ = append(got.Results, RecResult{Verdict: "appended"})
				if !reflect.DeepEqual(*got.Combined, keep) {
					t.Errorf("%s: appending to Results overwrote Combined", name)
				}
			}

			// One collect per distinct recommended override.
			var combined []map[string]cc.LayoutOverride // override sets of the combined runs, in order
			for i, r := range ran {
				if r.label == "combined" {
					combined = append(combined, r.ovs)
					continue
				}
				for _, b := range ran[:i] {
					if b.label != "combined" && reflect.DeepEqual(r.ovs, b.ovs) {
						t.Errorf("%s: %s ran the override set of %s again: %+v", name, r.label, b.label, r.ovs)
					}
				}
			}
			guessRan := len(combined) > 0 && reflect.DeepEqual(combined[0], deref(combine(recs)))
			guess := "skipped"
			switch {
			case guessRan && len(combined) == 1 && got.Combined != nil:
				guess = "used"
			case guessRan:
				guess = "discarded"
			}
			if w := tc.guess[workers]; w != "" && guess != w {
				t.Errorf("%s: guess %s, want %s", name, guess, w)
			}
			if w := tc.runs[workers]; w != 0 && len(ran) != w {
				t.Errorf("%s: %d runs, want %d", name, len(ran), w)
			}
			// Unless the guess was used, the accepted set runs exactly
			// once, last.
			if guess != "used" && len(accepted) > 0 {
				once := 0
				for _, ovs := range combined {
					if reflect.DeepEqual(ovs, deref(combine(accepted))) {
						once++
					}
				}
				if once != 1 || !reflect.DeepEqual(combined[len(combined)-1], deref(combine(accepted))) {
					t.Errorf("%s: combined runs %+v, want the accepted set once, last", name, combined)
				}
			}
		}
	}
}

// deref copies an override set by value, so runs compare by content.
func deref(ovs map[string]*cc.LayoutOverride) map[string]cc.LayoutOverride {
	m := make(map[string]cc.LayoutOverride, len(ovs))
	for k, ov := range ovs {
		m[k] = *ov
	}
	return m
}
