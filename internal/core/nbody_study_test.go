package core

import (
	"testing"

	"dsprof/internal/cc"
	"dsprof/internal/collect"
	"dsprof/internal/nbody"
)

// TestNBodyVariantStudy is the ground-truth half of the §3.3-style
// study: the hand-packed compressed-links build (paperscape's
// LAYOUT_USE_COMPRESSED_LINKS) must measurably beat the natural
// baseline on the paper's memory counters, the way the expert-optimized
// MCF layout beats the paper layout. The advisor's rediscovery of the
// same headroom from counter data alone is TestNBodyRediscovery (in
// internal/advisor); EXPERIMENTS.md records the measured deltas.
func TestNBodyVariantStudy(t *testing.T) {
	p := DefaultStudy(NBody)
	iv := NBody.Intervals(p.Size)
	input := NBody.Generate(p.Size, p.Seed)
	cfg := StudyMachine()

	type counts struct{ ecstall, ecrm, ecref, dtlbm, dcrm int }
	profile := func(v nbody.Variant) counts {
		prog, err := nbody.Program(v, cc.Options{HWCProf: true})
		if err != nil {
			t.Fatal(err)
		}
		_, resA, resB, err := ProfilePaperStyle(t.Context(), prog, input, &cfg, iv)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		out, err := nbody.ParseOutput(resA.Machine.OutputLongs())
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if out.Status != 0 {
			t.Fatalf("%v: status %d", v, out.Status)
		}
		// A third pass counts D$ read misses directly: at this scale the
		// node array blows through the 4 KB D$ while fitting the E$, so
		// ecrm stays near zero and dcrm carries the miss signal.
		resC, err := CollectRun(t.Context(), prog, "+dcrm,997", collect.Options{Machine: &cfg, Input: input})
		if err != nil {
			t.Fatalf("%v: experiment C: %v", v, err)
		}
		return counts{
			ecstall: resA.Exp.EventCount(0),
			ecrm:    resA.Exp.EventCount(1),
			ecref:   resB.Exp.EventCount(0),
			dtlbm:   resB.Exp.EventCount(1),
			dcrm:    resC.Exp.EventCount(0),
		}
	}

	base := profile(nbody.VariantBaseline)
	comp := profile(nbody.VariantCompressed)
	t.Logf("baseline:   ecstall %d  dcrm %d  ecrm %d  ecref %d  dtlbm %d", base.ecstall, base.dcrm, base.ecrm, base.ecref, base.dtlbm)
	t.Logf("compressed: ecstall %d  dcrm %d  ecrm %d  ecref %d  dtlbm %d", comp.ecstall, comp.dcrm, comp.ecrm, comp.ecref, comp.dtlbm)

	if base.ecstall == 0 || base.dcrm == 0 {
		t.Fatalf("baseline produced no memory events: %+v", base)
	}
	// Halving link memory must show up in the counters: fewer E$ stall
	// and D$ read-miss overflows, and no E$ read-miss regression.
	if comp.ecstall >= base.ecstall {
		t.Errorf("compressed links did not reduce E$ stalls: %d -> %d", base.ecstall, comp.ecstall)
	}
	if comp.dcrm >= base.dcrm {
		t.Errorf("compressed links did not reduce D$ read misses: %d -> %d", base.dcrm, comp.dcrm)
	}
	if comp.ecrm > base.ecrm {
		t.Errorf("compressed links regressed E$ read misses: %d -> %d", base.ecrm, comp.ecrm)
	}
}
