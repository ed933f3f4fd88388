package machine

import (
	"testing"

	"dsprof/internal/isa"
	"dsprof/internal/tlb"
)

// TestMaxBaseCostIsTrueMax pins the cycle bounds to the cost table they
// are built from. worstCost and a block's static cost read the Cost that
// LoadProgram fuses from baseCost into the predecoded text, so this is a
// tripwire against that fusion (or the table's indexing) being broken by
// a future opcode: it recomputes the table's maximum independently,
// checks it is hit by a real opcode, checks every opcode is populated,
// and checks a text holding every opcode carries exactly the table's
// costs, the costliest included.
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

// TestMaxInstrCostBounds checks that worstCost — the per-instruction
// cycle bound behind each block's wc and the prefix fit — dominates what
// the simulator can charge one non-syscall instruction. An undersized
// bound would let a translated stretch run past an armed cycle counter's
// overflow or a clock tick. The bound is checked for every opcode
// against the worst stall combination of its class, and against the cost
// Step charged each instruction of equivProg on the scaled machine, whose
// small TLB and caches make fetch, TLB and store misses common.
func TestMaxInstrCostBounds(t *testing.T) {
	cfg := DefaultConfig()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	costs := cfg.Costs
	for op := isa.Op(0); op < isa.NumOps; op++ {
		if op == isa.Syscall {
			continue // service cycles are unbounded; syscalls always step
		}
		d := isa.Predecode(&isa.Instr{Op: op}, TextBase)
		d.Cost = baseCost[op]
		worst := uint64(d.Cost) + uint64(cfg.ICMissStall)
		if d.Class.IsMem() {
			worst += tlb.MissPenaltyCycles + uint64(max(costs.MemStall, costs.StoreMissStall)+costs.WritebackStall)
		}
		if got := m.worstCost(&d, true); got < worst {
			t.Errorf("worstCost(%v) = %d < worst charge %d", op, got, worst)
		}
	}

	m = build(t, ScaledConfig(), equivProg)
	var memMax uint64
	for !m.Halted() {
		d := &m.dec[(m.PC-TextBase)/isa.InstrBytes]
		before := m.stats.Cycles
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
		if d.Class == isa.ClSyscall {
			continue
		}
		cost := m.stats.Cycles - before
		if w := m.worstCost(d, true); cost > w {
			t.Fatalf("%v at %#x cost %d cycles, over its worst case %d", d.Op, m.PC, cost, w)
		}
		if d.Class.IsMem() {
			memMax = max(memMax, cost)
		}
	}
	if floor := tlb.MissPenaltyCycles + uint64(costs.StoreMissStall); memMax < floor {
		t.Errorf("costliest memory instruction took %d cycles; the workload never missed TLB and E$ at once (%d)", memMax, floor)
	}
}
