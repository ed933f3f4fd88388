package machine

import (
	"testing"

	"dsprof/internal/isa"
	"dsprof/internal/tlb"
)

// TestMaxBaseCostIsTrueMax pins the event-horizon cost bounds to the cost
// table they summarize. maxBaseCost is derived by scanning baseCost, so
// this is a tripwire against the derivation (or the table's indexing)
// being broken by a future opcode, not a re-statement of a constant: it
// recomputes the maximum independently, checks it is hit by a real
// opcode, and checks the per-opcode costs the derivation folds over are
// all populated.
func TestMaxBaseCostIsTrueMax(t *testing.T) {
	var want uint64
	hitBy := isa.NumOps
	for op := isa.Op(0); op < isa.NumOps; op++ {
		if c := uint64(baseCost[op]); c > want {
			want, hitBy = c, op
		}
	}
	if maxBaseCost != want {
		t.Errorf("maxBaseCost = %d, true max over baseCost = %d (op %v)", maxBaseCost, want, hitBy)
	}
	if hitBy == isa.NumOps {
		t.Fatal("no opcode has a positive base cost")
	}
	for op := isa.Op(0); op < isa.NumOps; op++ {
		if baseCost[op] == 0 {
			t.Errorf("opcode %v has zero base cost; horizon math assumes every instruction costs at least one cycle", op)
		}
	}
}

// TestMaxInstrCostBounds checks that the machine's per-instruction cycle
// bound really dominates the worst case the simulator can charge for one
// non-syscall instruction. Both the interpreter's horizon batching and
// the translated engine's block-level budget check subtract this
// bound; an undersized value would let a cycle-armed counter overflow
// mid-batch.
func TestMaxInstrCostBounds(t *testing.T) {
	cfg := DefaultConfig()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	worst := maxBaseCost + // pipeline cost
		uint64(cfg.ICMissStall) + // fetch miss
		tlb.MissPenaltyCycles + // DTLB miss
		uint64(cfg.Costs.MemStall) + // load missing D$ and E$
		uint64(cfg.Costs.WritebackStall) // dirty victim
	if m.maxInstrCost < worst {
		t.Errorf("maxInstrCost = %d < worst single-instruction cost %d", m.maxInstrCost, worst)
	}
	// Store path worst case (store miss stall + writeback) must be covered
	// too; it shares the fetch and TLB terms.
	worstStore := maxBaseCost + uint64(cfg.ICMissStall) + tlb.MissPenaltyCycles +
		uint64(cfg.Costs.StoreMissStall) + uint64(cfg.Costs.WritebackStall)
	if m.maxInstrCost < worstStore {
		t.Errorf("maxInstrCost = %d < worst store cost %d", m.maxInstrCost, worstStore)
	}
}
