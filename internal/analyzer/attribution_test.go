package analyzer

import (
	"testing"

	"dsprof/internal/asm"
	"dsprof/internal/dwarf"
	"dsprof/internal/experiment"
	"dsprof/internal/hwc"
	"dsprof/internal/isa"
	"dsprof/internal/machine"
)

// Synthetic-experiment unit tests: the attribution/validation logic of
// §2.3 exercised on hand-built programs and event records, without
// running the machine.

func pcAt(i int) uint64 { return machine.TextBase + uint64(i)*isa.InstrBytes }

// synthProgram builds a program with one function "f" covering:
//
//	0: ldx [o3+56], o2     (xref: node.orientation)
//	1: add o2, 1, o2
//	2: nop
//	3: ldx [o3+24], o4     (xref: node.child) — also a branch target
//	4: nop
//	5: ldx [sp+0], o5      (xref: compiler temporary)
//	6: ldx [o3+0], o1      (no xref entry)
//	7: halt
func synthProgram(hwcprof bool) (*asm.Program, dwarf.TypeID) {
	tab := dwarf.NewTable(dwarf.FormatDWARF)
	long := tab.AddType(dwarf.Type{Name: "long", Kind: dwarf.KindBase, Size: 8})
	node := tab.AddType(dwarf.Type{Name: "node", Kind: dwarf.KindStruct, Size: 120})
	tab.Types[node].Members = []dwarf.Member{
		{Name: "number", Off: 0, Type: long},
		{Name: "child", Off: 24, Type: long},
		{Name: "orientation", Off: 56, Type: long},
	}
	tab.AddFunc(dwarf.Func{Name: "f", Start: pcAt(0), End: pcAt(8), File: "f.mc", HWCProf: hwcprof})
	if hwcprof {
		tab.Xrefs[pcAt(0)] = dwarf.DataXref{Type: node, Member: 2}
		tab.Xrefs[pcAt(3)] = dwarf.DataXref{Type: node, Member: 1}
		tab.Xrefs[pcAt(5)] = dwarf.DataXref{Type: dwarf.NoType, Member: -1}
		tab.BranchTargets[pcAt(3)] = true
	}
	for i := 0; i < 8; i++ {
		tab.Lines[pcAt(i)] = int32(i + 10)
	}
	tab.Source["f.mc"] = make([]string, 20)
	prog := &asm.Program{
		Name:  "synth",
		Base:  machine.TextBase,
		Entry: machine.TextBase,
		Text: []isa.Instr{
			{Op: isa.LdX, Rd: isa.O2, Rs1: isa.O3, UseImm: true, Imm: 56},
			{Op: isa.Add, Rd: isa.O2, Rs1: isa.O2, UseImm: true, Imm: 1},
			{Op: isa.Nop},
			{Op: isa.LdX, Rd: isa.O4, Rs1: isa.O3, UseImm: true, Imm: 24},
			{Op: isa.Nop},
			{Op: isa.LdX, Rd: isa.O5, Rs1: isa.SP, UseImm: true, Imm: 0},
			{Op: isa.LdX, Rd: isa.O1, Rs1: isa.O3, UseImm: true, Imm: 0},
			{Op: isa.Halt},
		},
		Debug: tab,
	}
	return prog, node
}

// synthExperiment wraps events into a loadable experiment.
func synthExperiment(prog *asm.Program, backtrack bool, events []experiment.HWCEvent) *experiment.Experiment {
	e := &experiment.Experiment{Prog: prog}
	e.Meta.ProgName = prog.Name
	e.Meta.ClockHz = 900_000_000
	e.Meta.Counters = []experiment.CounterSpec{
		{Event: hwc.EvECRdMiss, Interval: 1000, Backtrack: backtrack},
		{},
	}
	e.HWC[0] = events
	return e
}

func analyzeEvents(t *testing.T, prog *asm.Program, backtrack bool, events []experiment.HWCEvent) *Analyzer {
	t.Helper()
	a, err := New(synthExperiment(prog, backtrack, events))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// attributeEvents reduces the events like analyzeEvents and returns each
// event's attribution, re-derived through the analyzer's attribute.
func attributeEvents(t *testing.T, prog *asm.Program, backtrack bool, events []experiment.HWCEvent) (*Analyzer, []AEvent) {
	t.Helper()
	a := analyzeEvents(t, prog, backtrack, events)
	spec := a.Exps[0].Meta.Counters[0]
	aes := make([]AEvent, len(events))
	for i, he := range events {
		aes[i] = a.attribute(spec, he)
	}
	return a, aes
}

func TestAttributeValidatedCandidate(t *testing.T) {
	prog, node := synthProgram(true)
	// Candidate at 0, delivered at 2: no branch target in (0, 2].
	_, aes := attributeEvents(t, prog, true, []experiment.HWCEvent{
		{DeliveredPC: pcAt(2), CandidatePC: pcAt(0), EA: 0x40000038, HasEA: true},
	})
	ae := aes[0]
	if ae.Val != VOK || ae.PC != pcAt(0) {
		t.Fatalf("attribution = %+v", ae)
	}
	if ae.Obj.Kind != OKStruct || ae.Obj.Type != node || ae.Member != 2 {
		t.Errorf("object attribution = %+v, want node.orientation", ae)
	}
}

func TestAttributeArtificialBranchTarget(t *testing.T) {
	prog, _ := synthProgram(true)
	// Candidate at 0, delivered at 4: pc 3 is a branch target inside the
	// window, so the path is ambiguous — attribute to an artificial
	// <branch target> PC at 3.
	a, aes := attributeEvents(t, prog, true, []experiment.HWCEvent{
		{DeliveredPC: pcAt(4), CandidatePC: pcAt(0)},
	})
	ae := aes[0]
	if ae.Val != VArtificialBT || !ae.Artificial || ae.PC != pcAt(3) {
		t.Fatalf("attribution = %+v, want artificial BT at %#x", ae, pcAt(3))
	}
	if ae.Obj.Kind != OKUnresolvable {
		t.Errorf("object = %v, want (Unresolvable)", ae.Obj.Kind)
	}
	// The artificial PC shows in the PC list flagged as such.
	rows := a.PCs(ByEvent(hwc.EvECRdMiss), 5)
	found := false
	for _, r := range rows {
		if r.PC == pcAt(3) && r.Artificial {
			found = true
		}
	}
	if !found {
		t.Error("artificial branch-target PC missing from PC list")
	}
}

// TestArtificialBranchTargetAtBlockEntry: with several branch targets
// inside the skid window, the artificial PC must be the *last* one —
// the entry of the delivered PC's basic block, the only join provably
// on the executed path. (The old code picked the first, a join node
// that execution may never have reached.)
func TestArtificialBranchTargetAtBlockEntry(t *testing.T) {
	prog, _ := synthProgram(true)
	prog.Debug.BranchTargets[pcAt(5)] = true // second join, after pcAt(3)
	_, aes := attributeEvents(t, prog, true, []experiment.HWCEvent{
		{DeliveredPC: pcAt(6), CandidatePC: pcAt(0)},
	})
	ae := aes[0]
	if ae.Val != VArtificialBT || !ae.Artificial {
		t.Fatalf("attribution = %+v, want artificial BT", ae)
	}
	if ae.PC != pcAt(5) {
		t.Fatalf("artificial PC = %#x, want block entry %#x (last target), not the first target %#x",
			ae.PC, pcAt(5), pcAt(3))
	}
	if ae.Obj.Kind != OKUnresolvable || ae.Member >= 0 {
		t.Errorf("object = %v member %d, want (Unresolvable) without member", ae.Obj.Kind, ae.Member)
	}
}

func TestAttributeNotFound(t *testing.T) {
	prog, _ := synthProgram(true)
	_, aes := attributeEvents(t, prog, true, []experiment.HWCEvent{
		{DeliveredPC: pcAt(2), CandidatePC: 0}, // backtracking failed
	})
	ae := aes[0]
	if ae.Val != VNotFound || ae.Obj.Kind != OKUnresolvable || ae.PC != pcAt(2) {
		t.Fatalf("attribution = %+v", ae)
	}
}

func TestAttributeUnascertainable(t *testing.T) {
	prog, _ := synthProgram(false) // module without -xhwcprof
	a, aes := attributeEvents(t, prog, true, []experiment.HWCEvent{
		{DeliveredPC: pcAt(2), CandidatePC: pcAt(0)},
	})
	ae := aes[0]
	if ae.Val != VNoHwcprof || ae.Obj.Kind != OKUnascertainable {
		t.Fatalf("attribution = %+v", ae)
	}
	if eff := a.Effectiveness(hwc.EvECRdMiss); eff != 0 {
		t.Errorf("effectiveness = %v, want 0", eff)
	}
}

func TestAttributeUnverifiable(t *testing.T) {
	prog, _ := synthProgram(true)
	// Strip the branch-target table but keep HWCProf: validation is
	// impossible — (Unverifiable).
	prog.Debug.BranchTargets = map[uint64]bool{}
	_, aes := attributeEvents(t, prog, true, []experiment.HWCEvent{
		{DeliveredPC: pcAt(2), CandidatePC: pcAt(0)},
	})
	ae := aes[0]
	if ae.Val != VUnverifiable || ae.Obj.Kind != OKUnverifiable {
		t.Fatalf("attribution = %+v", ae)
	}
}

func TestAttributeNoBacktrack(t *testing.T) {
	prog, node := synthProgram(true)
	_, aes := attributeEvents(t, prog, false, []experiment.HWCEvent{
		// Delivered on a memory op with an xref: attributed there (often
		// the wrong object — that is the ablation's point).
		{DeliveredPC: pcAt(3)},
		// Delivered on a non-memory op: (Unspecified).
		{DeliveredPC: pcAt(1)},
	})
	if aes[0].Val != VNoBacktrack || aes[0].Obj.Type != node {
		t.Fatalf("event 0 = %+v", aes[0])
	}
	if aes[1].Obj.Kind != OKUnspecified {
		t.Fatalf("event 1 = %+v", aes[1])
	}
}

func TestAttributeUnidentifiedTemporary(t *testing.T) {
	prog, _ := synthProgram(true)
	_, aes := attributeEvents(t, prog, true, []experiment.HWCEvent{
		{DeliveredPC: pcAt(6), CandidatePC: pcAt(5)}, // spill-slot load
	})
	if aes[0].Obj.Kind != OKUnidentified {
		t.Fatalf("attribution = %+v, want (Unidentified)", aes[0])
	}
}

func TestAttributeUnspecified(t *testing.T) {
	prog, _ := synthProgram(true)
	_, aes := attributeEvents(t, prog, true, []experiment.HWCEvent{
		{DeliveredPC: pcAt(7), CandidatePC: pcAt(6)}, // load with no xref
	})
	if aes[0].Obj.Kind != OKUnspecified {
		t.Fatalf("attribution = %+v, want (Unspecified)", aes[0])
	}
}

func TestUnknownAggregation(t *testing.T) {
	prog, _ := synthProgram(true)
	a := analyzeEvents(t, prog, true, []experiment.HWCEvent{
		{DeliveredPC: pcAt(2), CandidatePC: pcAt(0)}, // OK -> node
		{DeliveredPC: pcAt(2), CandidatePC: 0},       // (Unresolvable)
		{DeliveredPC: pcAt(6), CandidatePC: pcAt(5)}, // (Unidentified)
		{DeliveredPC: pcAt(7), CandidatePC: pcAt(6)}, // (Unspecified)
	})
	rows := a.DataObjects(ByEvent(hwc.EvECRdMiss))
	byName := map[string]uint64{}
	for _, r := range rows {
		byName[r.Name] = r.M.Events[hwc.EvECRdMiss]
	}
	if byName["<Total>"] != 4 {
		t.Errorf("total = %d", byName["<Total>"])
	}
	if byName["<Unknown>"] != 3 {
		t.Errorf("<Unknown> = %d, want 3", byName["<Unknown>"])
	}
	for _, sub := range []string{"(Unresolvable)", "(Unidentified)", "(Unspecified)"} {
		if byName[sub] != 1 {
			t.Errorf("%s = %d, want 1", sub, byName[sub])
		}
	}
	if byName["{structure:node -}"] != 1 {
		t.Errorf("node = %d, want 1", byName["{structure:node -}"])
	}
	ub := a.UnknownBreakdown()
	if len(ub) != 3 {
		t.Errorf("UnknownBreakdown rows = %d, want 3", len(ub))
	}
	// Effectiveness counts only (Unresolvable)+(Unascertainable): 1 of 4.
	if eff := a.Effectiveness(hwc.EvECRdMiss); eff != 0.75 {
		t.Errorf("effectiveness = %v, want 0.75", eff)
	}
}

func TestMemberAggregation(t *testing.T) {
	prog, node := synthProgram(true)
	a := analyzeEvents(t, prog, true, []experiment.HWCEvent{
		{DeliveredPC: pcAt(2), CandidatePC: pcAt(0)}, // orientation
		{DeliveredPC: pcAt(2), CandidatePC: pcAt(0)}, // orientation
		{DeliveredPC: pcAt(5), CandidatePC: pcAt(3)}, // child
	})
	rows := a.Members(node)
	if len(rows) != 3 {
		t.Fatalf("member rows = %d", len(rows))
	}
	var orient, child uint64
	for _, r := range rows {
		switch r.Off {
		case 56:
			orient = r.M.Events[hwc.EvECRdMiss]
		case 24:
			child = r.M.Events[hwc.EvECRdMiss]
		}
	}
	if orient != 2 || child != 1 {
		t.Errorf("orientation=%d child=%d, want 2/1", orient, child)
	}
}

func TestEACarriedThrough(t *testing.T) {
	prog, _ := synthProgram(true)
	a := analyzeEvents(t, prog, true, []experiment.HWCEvent{
		{DeliveredPC: pcAt(2), CandidatePC: pcAt(0), EA: machine.HeapBase + 0x38, HasEA: true},
		{DeliveredPC: pcAt(2), CandidatePC: pcAt(0)},
	})
	if len(a.eaEvents) != 1 {
		t.Fatalf("eaEvents = %d, want 1", len(a.eaEvents))
	}
	segs := a.Segments()
	if len(segs) != 1 || segs[0].Seg != machine.SegHeap {
		t.Errorf("segments = %+v", segs)
	}
}
