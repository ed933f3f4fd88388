package advisor_test

import (
	"bytes"
	"context"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"dsprof/internal/advisor"
	"dsprof/internal/core"
)

// The n-body rediscovery loop runs once per test binary at the bundled
// scale (the same configuration `dsadvise loop -workload nbody` uses),
// deterministically.
var nbodyOnce sync.Once
var nbodyRun *core.AdviseRun
var nbodyErr error

func nbodyAdvise(t *testing.T) *core.AdviseRun {
	t.Helper()
	nbodyOnce.Do(func() {
		p := core.DefaultStudy(core.NBody)
		nbodyRun, nbodyErr = core.Advise(context.Background(), core.AdviseParams{
			Study:     p,
			Intervals: core.NBody.Intervals(p.Size),
			Advisor:   advisor.Options{MaxRecs: 10},
		})
	})
	if nbodyErr != nil {
		t.Fatal(nbodyErr)
	}
	return nbodyRun
}

// TestNBodyRediscovery is the §3.3 generalization test: on the bundled
// n-body graph, the advisor must rediscover — from counter data alone —
// the hot/cold split of the paperscape layout struct, and the
// recommendation must survive the full closed loop: recompile with the
// override, identical output, and a measured E$-stall improvement.
func TestNBodyRediscovery(t *testing.T) {
	run := nbodyAdvise(t)

	// Exact advice assertions: a split of struct lnode whose hot set is
	// precisely the force-loop random-read members, and a reorder that
	// packs the same members first.
	var split, reorder *advisor.Recommendation
	for i := range run.Advice.Recs {
		r := &run.Advice.Recs[i]
		if r.Struct != "lnode" {
			continue
		}
		switch r.Kind {
		case advisor.KindSplit:
			if split == nil {
				split = r
			}
		case advisor.KindReorder:
			if reorder == nil {
				reorder = r
			}
		}
	}
	if split == nil {
		t.Fatalf("no split of struct lnode proposed: %+v", run.Advice.Recs)
	}
	if reorder == nil {
		t.Fatalf("no reorder of struct lnode proposed: %+v", run.Advice.Recs)
	}
	hot := append([]string(nil), split.Hot...)
	sort.Strings(hot)
	if want := []string{"links", "num_links", "x", "y"}; !reflect.DeepEqual(hot, want) {
		t.Errorf("split hot set = %v, want %v", hot, want)
	}
	if len(reorder.Order) == 0 {
		t.Errorf("reorder has no member order")
	}

	// Exact accepted-action assertions: both lnode actions validate with
	// identical output and a strict measured improvement, and the
	// combined override run improves too.
	wantAccepted := map[string]bool{advisor.KindSplit: false, advisor.KindReorder: false}
	for _, r := range run.Valid.Results {
		if r.Rec.Struct != "lnode" {
			continue
		}
		if _, ok := wantAccepted[r.Rec.Kind]; !ok {
			continue
		}
		if r.Verdict != advisor.VerdictAccepted {
			t.Errorf("%s of lnode not accepted: verdict %q err %q", r.Rec.Kind, r.Verdict, r.Err)
			continue
		}
		if !r.OutputOK {
			t.Errorf("%s of lnode accepted with differing output", r.Rec.Kind)
		}
		if r.After >= r.Before {
			t.Errorf("%s of lnode: overflows %d -> %d, want strict improvement", r.Rec.Kind, r.Before, r.After)
		}
		wantAccepted[r.Rec.Kind] = true
	}
	for kind, ok := range wantAccepted {
		if !ok {
			t.Errorf("no validated %s of struct lnode", kind)
		}
	}
	c := run.Valid.Combined
	if c == nil || c.Verdict != advisor.VerdictAccepted || !c.OutputOK || c.After >= c.Before {
		t.Fatalf("combined override run = %+v, want accepted, output-identical, improved", c)
	}

	// The rendered report names the rediscovered actions.
	var rep bytes.Buffer
	if err := run.WriteReport(&rep, 10); err != nil {
		t.Fatal(err)
	}
	out := rep.String()
	for _, want := range []string{"split", "reorder", "lnode", "accepted", "output identical"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
