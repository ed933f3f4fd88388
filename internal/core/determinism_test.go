package core

import (
	"strings"
	"testing"
)

// The simulation stack is fully deterministic: the same study parameters
// must reproduce byte-identical reports (EXPERIMENTS.md relies on this —
// the recorded numbers regenerate exactly).
func TestStudyDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full studies")
	}
	p := DefaultStudy(MCF)
	p.Size = 250
	render := func() string {
		s, err := RunStudy(p)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, f := range []string{"fig1-total.txt", "fig2-functions.txt", "fig5-pcs.txt", "fig6-data-objects.txt", "fig7-node-members.txt"} {
			b.WriteString(renderFigure(t, s, f))
		}
		return b.String()
	}
	first := render()
	second := render()
	if first != second {
		t.Error("two identical studies rendered different reports")
	}
}

// Different seeds must produce different instances (and thus different
// profiles) — the determinism is seed-driven, not hard-coded.
func TestStudySeedSensitivity(t *testing.T) {
	a := DefaultStudy(MCF)
	a.Size = 120
	b := a
	b.Seed = a.Seed + 1
	ca, _, err := TimeMCF(a)
	if err != nil {
		t.Fatal(err)
	}
	cb, _, err := TimeMCF(b)
	if err != nil {
		t.Fatal(err)
	}
	if ca.Cycles == cb.Cycles {
		t.Error("different seeds produced identical cycle counts (suspicious)")
	}
}
