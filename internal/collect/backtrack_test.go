package collect

import (
	"testing"

	"dsprof/internal/analyzer"
	"dsprof/internal/asm"
	"dsprof/internal/dwarf"
	"dsprof/internal/experiment"
	"dsprof/internal/hwc"
	"dsprof/internal/isa"
	"dsprof/internal/machine"
)

// Unit tests for the apropos backtracking search and effective-address
// recovery on hand-built instruction sequences.

func makeProg(instrs ...isa.Instr) *asm.Program {
	return &asm.Program{
		Name: "synthetic",
		Base: machine.TextBase,
		Text: instrs,
	}
}

func pc(i int) uint64 { return machine.TextBase + uint64(i)*isa.InstrBytes }

func TestBacktrackFindsNearestLoad(t *testing.T) {
	prog := makeProg(
		isa.Instr{Op: isa.LdX, Rd: isa.O1, Rs1: isa.O3, UseImm: true, Imm: 56}, // 0
		isa.Instr{Op: isa.Add, Rd: isa.O2, Rs1: isa.O1, UseImm: true, Imm: 1},  // 1
		isa.Instr{Op: isa.Nop},  // 2
		isa.Instr{Op: isa.Halt}, // 3
	)
	cand, ok := Backtrack(prog, pc(2), hwc.EvECRdMiss, 8)
	if !ok || cand != pc(0) {
		t.Errorf("Backtrack = %#x, %v; want %#x", cand, ok, pc(0))
	}
}

func TestBacktrackLoadsOnlySkipsStores(t *testing.T) {
	prog := makeProg(
		isa.Instr{Op: isa.LdX, Rd: isa.O1, Rs1: isa.O3, UseImm: true, Imm: 0}, // 0
		isa.Instr{Op: isa.StX, Rd: isa.O1, Rs1: isa.O4, UseImm: true, Imm: 8}, // 1
		isa.Instr{Op: isa.Nop}, // 2
	)
	// Read-miss counters are loads-only: skip the store at 1, find 0.
	cand, ok := Backtrack(prog, pc(2), hwc.EvECRdMiss, 8)
	if !ok || cand != pc(0) {
		t.Errorf("loads-only Backtrack = %#x, %v", cand, ok)
	}
	// E$ refs can come from stores too: find the store at 1.
	cand, ok = Backtrack(prog, pc(2), hwc.EvECRef, 8)
	if !ok || cand != pc(1) {
		t.Errorf("refs Backtrack = %#x, %v", cand, ok)
	}
}

func TestBacktrackRespectsWindow(t *testing.T) {
	instrs := []isa.Instr{{Op: isa.LdX, Rd: isa.O1, Rs1: isa.O3, UseImm: true}}
	for i := 0; i < 10; i++ {
		instrs = append(instrs, isa.Instr{Op: isa.Add, Rd: isa.O2, Rs1: isa.O2, UseImm: true, Imm: 1})
	}
	prog := makeProg(instrs...)
	if _, ok := Backtrack(prog, pc(9), hwc.EvECRdMiss, 4); ok {
		t.Error("found a trigger beyond the window")
	}
	if cand, ok := Backtrack(prog, pc(9), hwc.EvECRdMiss, 16); !ok || cand != pc(0) {
		t.Errorf("wide window Backtrack = %#x, %v", cand, ok)
	}
}

func TestBacktrackStopsAtTextStart(t *testing.T) {
	prog := makeProg(
		isa.Instr{Op: isa.Nop},
		isa.Instr{Op: isa.Nop},
	)
	if _, ok := Backtrack(prog, pc(1), hwc.EvECRdMiss, 8); ok {
		t.Error("walked past the start of text")
	}
}

func TestRecoverEASimple(t *testing.T) {
	prog := makeProg(
		isa.Instr{Op: isa.LdX, Rd: isa.O1, Rs1: isa.O3, UseImm: true, Imm: 56}, // candidate
		isa.Instr{Op: isa.Add, Rd: isa.O2, Rs1: isa.O1, UseImm: true, Imm: 1},
		isa.Instr{Op: isa.Nop},
	)
	var regs [isa.NumRegs]int64
	regs[isa.O3] = 0x40001000
	ea, ok := RecoverEA(prog, pc(0), pc(2), &regs)
	if !ok || ea != 0x40001000+56 {
		t.Errorf("RecoverEA = %#x, %v", ea, ok)
	}
}

func TestRecoverEARegisterIndexed(t *testing.T) {
	prog := makeProg(
		isa.Instr{Op: isa.LdX, Rd: isa.O1, Rs1: isa.O3, Rs2: isa.O4},
		isa.Instr{Op: isa.Nop},
	)
	var regs [isa.NumRegs]int64
	regs[isa.O3] = 0x40002000
	regs[isa.O4] = 0x80
	ea, ok := RecoverEA(prog, pc(0), pc(1), &regs)
	if !ok || ea != 0x40002080 {
		t.Errorf("RecoverEA = %#x, %v", ea, ok)
	}
}

func TestRecoverEARefusesClobberedBase(t *testing.T) {
	// The load overwrites its own base register (pointer chasing):
	// the register content at delivery is the loaded value, not the
	// address, so the collector must refuse.
	prog := makeProg(
		isa.Instr{Op: isa.LdX, Rd: isa.O3, Rs1: isa.O3, UseImm: true, Imm: 8},
		isa.Instr{Op: isa.Nop},
	)
	var regs [isa.NumRegs]int64
	regs[isa.O3] = 0x40001000
	if _, ok := RecoverEA(prog, pc(0), pc(1), &regs); ok {
		t.Error("recovered an EA from a clobbered base register")
	}
}

func TestRecoverEARefusesIntermediateWrite(t *testing.T) {
	prog := makeProg(
		isa.Instr{Op: isa.LdX, Rd: isa.O1, Rs1: isa.O3, UseImm: true, Imm: 0},
		isa.Instr{Op: isa.Add, Rd: isa.O3, Rs1: isa.O3, UseImm: true, Imm: 64}, // clobbers base
		isa.Instr{Op: isa.Nop},
	)
	var regs [isa.NumRegs]int64
	regs[isa.O3] = 0x40003000
	if _, ok := RecoverEA(prog, pc(0), pc(2), &regs); ok {
		t.Error("recovered an EA across an intervening base-register write")
	}
	// But a write to an unrelated register is fine.
	prog2 := makeProg(
		isa.Instr{Op: isa.LdX, Rd: isa.O1, Rs1: isa.O3, UseImm: true, Imm: 0},
		isa.Instr{Op: isa.Add, Rd: isa.O5, Rs1: isa.O5, UseImm: true, Imm: 64},
		isa.Instr{Op: isa.Nop},
	)
	if ea, ok := RecoverEA(prog2, pc(0), pc(2), &regs); !ok || ea != 0x40003000 {
		t.Errorf("unrelated write blocked EA recovery: %#x, %v", ea, ok)
	}
}

func TestRecoverEANonMemoryCandidate(t *testing.T) {
	prog := makeProg(
		isa.Instr{Op: isa.Add, Rd: isa.O1, Rs1: isa.O3, UseImm: true, Imm: 1},
		isa.Instr{Op: isa.Nop},
	)
	var regs [isa.NumRegs]int64
	if _, ok := RecoverEA(prog, pc(0), pc(1), &regs); ok {
		t.Error("recovered an EA from a non-memory instruction")
	}
}

// TestBacktrackAcrossJoinNode is the paper's §2.3 correctness rule end
// to end: the collector's backtracking search deliberately ignores
// branch targets ("too expensive to locate branch targets at data
// collection time"), so when the skid window spans a join node the
// candidate it records lies in a *preceding* basic block and does not
// postdominate the delivered PC. The analyzer's validation must then
// attribute the event to the artificial <branch target> PC at the join
// — never to the stale candidate's struct member.
func TestBacktrackAcrossJoinNode(t *testing.T) {
	tab := dwarf.NewTable(dwarf.FormatDWARF)
	long := tab.AddType(dwarf.Type{Name: "long", Kind: dwarf.KindBase, Size: 8})
	node := tab.AddType(dwarf.Type{Name: "node", Kind: dwarf.KindStruct, Size: 120})
	tab.Types[node].Members = []dwarf.Member{
		{Name: "number", Off: 0, Type: long},
		{Name: "orientation", Off: 56, Type: long},
	}
	tab.AddFunc(dwarf.Func{Name: "f", Start: pc(0), End: pc(6), File: "f.mc", HWCProf: true})
	// Block A ends at 2; 3 is a join node (branch target) beginning the
	// block that contains the delivered PC.
	tab.Xrefs[pc(0)] = dwarf.DataXref{Type: node, Member: 1} // node.orientation
	tab.BranchTargets[pc(3)] = true
	prog := &asm.Program{
		Name:  "join",
		Base:  machine.TextBase,
		Entry: machine.TextBase,
		Text: []isa.Instr{
			{Op: isa.LdX, Rd: isa.O2, Rs1: isa.O3, UseImm: true, Imm: 56}, // 0: block A
			{Op: isa.Add, Rd: isa.O2, Rs1: isa.O2, UseImm: true, Imm: 1},  // 1
			{Op: isa.Nop}, // 2
			{Op: isa.Nop}, // 3: join node
			{Op: isa.Add, Rd: isa.O1, Rs1: isa.O1, UseImm: true, Imm: 2}, // 4
			{Op: isa.Nop}, // 5: delivered here
		},
		Debug: tab,
	}

	// The collector's search crosses the join and lands on the load.
	cand, ok := Backtrack(prog, pc(5), hwc.EvECRdMiss, 8)
	if !ok || cand != pc(0) {
		t.Fatalf("Backtrack = %#x, %v; want the (stale) candidate %#x", cand, ok, pc(0))
	}

	// Analysis must catch the crossed join node and refuse the member.
	e := &experiment.Experiment{Prog: prog}
	e.Meta.ProgName = prog.Name
	e.Meta.ClockHz = 900_000_000
	e.Meta.Counters = []experiment.CounterSpec{
		{Event: hwc.EvECRdMiss, Interval: 1000, Backtrack: true},
		{},
	}
	e.HWC[0] = []experiment.HWCEvent{{PIC: 0, DeliveredPC: pc(5), CandidatePC: cand}}
	a, err := analyzer.New(e)
	if err != nil {
		t.Fatal(err)
	}
	byMiss := analyzer.ByEvent(hwc.EvECRdMiss)
	rows := a.PCs(byMiss, 0)
	if len(rows) != 1 || !rows[0].Artificial || rows[0].PC != pc(3) {
		t.Fatalf("PC rows = %+v, want the one event at an artificial <branch target> at %#x", rows, pc(3))
	}
	for _, r := range a.DataObjects(byMiss) {
		switch r.Name {
		case "<Total>", "<Unknown>", "(Unresolvable)":
			if n := r.M.Events[hwc.EvECRdMiss]; n != 1 {
				t.Errorf("%s holds %d events, want the one event", r.Name, n)
			}
		default:
			t.Errorf("event attributed to %s; a crossed join node must land in (Unresolvable)", r.Name)
		}
	}
	for _, r := range a.Members(node) {
		if !r.M.IsZero() {
			t.Errorf("event attributed to member %s; a crossed join node must never yield a member", r.Name)
		}
	}
}

func TestDefaultClockInterval(t *testing.T) {
	iv := DefaultClockIntervalCycles(900_000_000)
	if iv < 8_000_000 || iv > 10_000_000 {
		t.Errorf("default clock interval %d not ~10ms", iv)
	}
	if iv%2 == 0 {
		t.Error("interval should be odd (prime-ish, per the paper)")
	}
}
