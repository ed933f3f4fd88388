package machine

import (
	"testing"

	"dsprof/internal/isa"
)

// TestMaxBaseCostIsTrueMax pins the cost table the cycle horizons rest
// on. A translated block runs when its static cost — the Cost that
// LoadProgram fuses from baseCost into the predecoded text — fits before
// the next tick or cycle-counter overflow, and only a stall may take a
// stretch past it. That horizon is exact only because every opcode costs
// at least one cycle: then no tick falls due and no cycle counter
// overflows before a stretch's last instruction. So this is a tripwire
// against a future opcode (or the table's indexing, or the fusion)
// breaking that: it recomputes the table's maximum independently, checks
// it is hit by a real opcode, checks every opcode costs at least one
// cycle, and checks a text holding every opcode carries exactly the
// table's costs, the costliest included.
func TestMaxBaseCostIsTrueMax(t *testing.T) {
	var want uint64
	hitBy := isa.NumOps
	for op := isa.Op(0); op < isa.NumOps; op++ {
		if c := uint64(baseCost[op]); c > want {
			want, hitBy = c, op
		}
	}
	if hitBy == isa.NumOps {
		t.Fatal("no opcode has a positive base cost")
	}
	for op := isa.Op(0); op < isa.NumOps; op++ {
		if baseCost[op] == 0 {
			t.Errorf("opcode %v has zero base cost; the tick horizon assumes every instruction costs at least one cycle", op)
		}
	}

	m, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	text := make([]isa.Instr, isa.NumOps)
	for op := range text {
		text[op] = isa.Instr{Op: isa.Op(op)}
	}
	if err := m.LoadProgram(text, nil, TextBase); err != nil {
		t.Fatal(err)
	}
	var got uint64
	for i := range m.dec {
		d := &m.dec[i]
		if d.Cost != baseCost[d.Op] {
			t.Errorf("predecoded %v carries cost %d, table says %d", d.Op, d.Cost, baseCost[d.Op])
		}
		got = max(got, uint64(d.Cost))
	}
	if got != want {
		t.Errorf("max predecoded cost = %d, true max over baseCost = %d (op %v)", got, want, hitBy)
	}
}
