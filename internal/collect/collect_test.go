package collect

import (
	"path/filepath"
	"reflect"
	"testing"

	"dsprof/internal/asm"
	"dsprof/internal/cc"
	"dsprof/internal/experiment"
	"dsprof/internal/hwc"
	"dsprof/internal/machine"
)

// chaseSrc is a pointer-chasing workload whose loads miss heavily: a
// shuffled singly linked list larger than the scaled E$.
const chaseSrc = `
struct node { long value; struct node *next; long pad1; long pad2; long pad3; long pad4; long pad5; long pad6; };
struct node *nodes;
long nnodes;
struct node *build(long n) {
	long i;
	long j;
	long stride;
	struct node *a;
	a = (struct node *) malloc(n * sizeof(struct node));
	stride = 97;
	j = 0;
	for (i = 0; i < n; i++) {
		a[j].value = i;
		a[j].next = &a[(j + stride) % n];
		j = (j + stride) % n;
	}
	return a;
}
long chase(struct node *p, long steps) {
	long sum;
	sum = 0;
	while (steps > 0) {
		sum += p->value;
		p = p->next;
		steps--;
	}
	return sum;
}
long main() {
	struct node *a;
	long total;
	nnodes = read_long();
	a = build(nnodes);
	total = chase(a, nnodes * 4);
	write_long(total);
	return 0;
}
`

func compileChase(t *testing.T) *asm.Program {
	t.Helper()
	prog, err := cc.Compile([]cc.Source{{Name: "chase.mc", Text: chaseSrc}}, cc.Options{Name: "chase", HWCProf: true})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func scaled() *machine.Config {
	cfg := machine.ScaledConfig()
	cfg.MaxInstrs = 100_000_000
	return &cfg
}

func TestParseCounterSpec(t *testing.T) {
	specs, err := ParseCounterSpec("+ecstall,lo,+ecrm,on")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("got %d specs", len(specs))
	}
	if specs[0].Event != hwc.EvECStall || !specs[0].Backtrack {
		t.Errorf("spec 0 = %+v", specs[0])
	}
	if specs[1].Event != hwc.EvECRdMiss || !specs[1].Backtrack {
		t.Errorf("spec 1 = %+v", specs[1])
	}
	if specs[0].Interval == specs[1].Interval {
		t.Error("lo and on should give different intervals")
	}
	if _, err := ParseCounterSpec("ecref,on,dtlbm"); err == nil {
		t.Error("odd-length spec accepted")
	}
	if _, err := ParseCounterSpec("bogus,on"); err == nil {
		t.Error("unknown counter accepted")
	}
	if _, err := ParseCounterSpec("+ecref,on,+dtlbm,on,+ecrm,on"); err == nil {
		t.Error("three counters accepted")
	}
	// Numeric intervals and no-backtrack names.
	specs, err = ParseCounterSpec("cycles,12345")
	if err != nil || specs[0].Interval != 12345 || specs[0].Backtrack {
		t.Errorf("numeric spec = %+v, %v", specs, err)
	}
}

func TestProfiledRunMatchesUnprofiledOutput(t *testing.T) {
	prog := compileChase(t)
	input := []int64{20000}

	// Unprofiled reference run.
	cfg := scaled()
	m, err := machine.New(*cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadProgram(prog.Text, prog.Data, prog.Entry); err != nil {
		t.Fatal(err)
	}
	m.SetInput(input)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	want := m.OutputLongs()

	// Profiled run: collection must not perturb results.
	specs, _ := ParseCounterSpec("+ecstall,10000,+ecrm,997")
	res, err := Run(prog, Options{
		ClockProfile: true,
		Counters:     specs,
		Machine:      cfg,
		Input:        input,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Machine.OutputLongs()
	if len(got) != len(want) || got[0] != want[0] {
		t.Errorf("profiled output %v, unprofiled %v", got, want)
	}
	if len(res.Exp.Clock) == 0 {
		t.Error("no clock ticks recorded")
	}
	if len(res.Exp.HWC[0]) == 0 || len(res.Exp.HWC[1]) == 0 {
		t.Errorf("no HWC events: %d, %d", len(res.Exp.HWC[0]), len(res.Exp.HWC[1]))
	}
}

func TestBacktrackingAccuracy(t *testing.T) {
	// With -xhwcprof padding, the candidate trigger PC from apropos
	// backtracking should match the true trigger for the overwhelming
	// majority of E$ read miss events (paper: "accuracies of nearly 100%
	// have been observed").
	prog := compileChase(t)
	specs, _ := ParseCounterSpec("+ecrm,499,+dtlbm,499")
	res, err := Run(prog, Options{Counters: specs, Machine: scaled(), Input: []int64{20000}})
	if err != nil {
		t.Fatal(err)
	}
	for pic, name := range []string{"ecrm", "dtlbm"} {
		acc := res.Accuracy[pic]
		if n := len(res.Exp.HWC[pic]); acc.Events != n {
			t.Fatalf("%s: accuracy counts %d events, the experiment holds %d", name, acc.Events, n)
		}
		if acc.Events < 50 {
			t.Fatalf("%s: only %d events", name, acc.Events)
		}
		t.Logf("%s: candidate PC right %d/%d, claimed EA right %d/%d",
			name, acc.PCRight, acc.Events, acc.EARight, acc.EAClaimed)
		accuracy := float64(acc.PCRight) / float64(acc.Events)
		if accuracy < 0.90 {
			t.Errorf("%s: backtracking accuracy %.1f%% (%d/%d), want >= 90%%",
				name, accuracy*100, acc.PCRight, acc.Events)
		}
		if acc.EAClaimed == 0 {
			t.Errorf("%s: no effective addresses recovered", name)
		} else if float64(acc.EARight)/float64(acc.EAClaimed) < 0.98 {
			// When the collector *claims* an EA it must be right: the
			// register-clobber check is conservative.
			t.Errorf("%s: recovered EAs wrong: %d/%d correct", name, acc.EARight, acc.EAClaimed)
		}
	}
}

func TestDTLBBacktrackingIsPerfect(t *testing.T) {
	// DTLB miss traps are precise, so backtracking should identify the
	// trigger for essentially every event.
	prog := compileChase(t)
	specs, _ := ParseCounterSpec("+dtlbm,211")
	res, err := Run(prog, Options{Counters: specs, Machine: scaled(), Input: []int64{20000}})
	if err != nil {
		t.Fatal(err)
	}
	acc := res.Accuracy[0]
	if n := len(res.Exp.HWC[0]); acc.Events != n {
		t.Fatalf("accuracy counts %d events, the experiment holds %d", acc.Events, n)
	}
	if acc.Events < 100 {
		t.Fatalf("only %d DTLB events", acc.Events)
	}
	if r := float64(acc.PCRight) / float64(acc.Events); r < 0.999 {
		t.Errorf("DTLB backtracking accuracy %.2f%%, want ~100%%", r*100)
	}
}

func TestNoBacktrackLeavesCandidateEmpty(t *testing.T) {
	prog := compileChase(t)
	specs, _ := ParseCounterSpec("ecrm,499")
	res, err := Run(prog, Options{Counters: specs, Machine: scaled(), Input: []int64{30000}})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Exp.HWC[0] {
		if e.CandidatePC != 0 || e.HasEA {
			t.Fatal("backtracking ran without the + prefix")
		}
	}
}

func TestCallstacksRecorded(t *testing.T) {
	prog := compileChase(t)
	specs, _ := ParseCounterSpec("+ecrm,499")
	res, err := Run(prog, Options{Counters: specs, Machine: scaled(), Input: []int64{30000}})
	if err != nil {
		t.Fatal(err)
	}
	deep := 0
	for _, e := range res.Exp.HWC[0] {
		if len(e.Callstack) >= 1 {
			deep++
		}
	}
	if deep == 0 {
		t.Error("no events carried a callstack (all work is in chase(), called from main)")
	}
}

func TestExperimentSaveLoadRoundtrip(t *testing.T) {
	prog := compileChase(t)
	specs, _ := ParseCounterSpec("+ecstall,10000,+dtlbm,499")
	res, err := Run(prog, Options{
		ClockProfile: true,
		Counters:     specs,
		Machine:      scaled(),
		Input:        []int64{10000},
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "test.er")
	if err := res.Exp.Save(dir); err != nil {
		t.Fatal(err)
	}
	back, err := experiment.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.Meta.ProgName != "chase" {
		t.Errorf("ProgName = %q", back.Meta.ProgName)
	}
	if len(back.HWC[0]) != len(res.Exp.HWC[0]) || len(back.HWC[1]) != len(res.Exp.HWC[1]) {
		t.Error("HWC events lost in roundtrip")
	}
	if len(back.Clock) != len(res.Exp.Clock) {
		t.Error("clock events lost")
	}
	if len(back.Allocs) == 0 {
		t.Error("allocations lost")
	}
	if back.Prog == nil || len(back.Prog.Text) != len(prog.Text) {
		t.Error("program lost")
	}
	if back.Prog.Debug.FuncByName("chase") == nil {
		t.Error("debug info lost")
	}
	if back.Meta.Stats.Instrs == 0 {
		t.Error("stats lost")
	}
}

func TestCollectPerturbationSmall(t *testing.T) {
	// Profiling overhead comes only from signal handling; the simulated
	// cycle counts must be identical with and without collection (the
	// collector observes, the machine pays no cycles for it). This pins
	// down that observation does not perturb the timing model.
	prog := compileChase(t)
	cfg := scaled()
	m, _ := machine.New(*cfg)
	if err := m.LoadProgram(prog.Text, prog.Data, prog.Entry); err != nil {
		t.Fatal(err)
	}
	m.SetInput([]int64{10000})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	plain := m.Stats().Cycles

	specs, _ := ParseCounterSpec("+ecstall,10000,+ecrm,997")
	res, err := Run(prog, Options{ClockProfile: true, Counters: specs, Machine: cfg, Input: []int64{10000}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Machine.Stats().Cycles != plain {
		t.Errorf("profiled run took %d cycles, unprofiled %d", res.Machine.Stats().Cycles, plain)
	}
}

// descendSrc chases the list of chaseSrc from under a recursion of
// varying depth, so consecutive events carry different callstacks.
const descendSrc = `
struct node { long value; struct node *next; long pad1; long pad2; long pad3; long pad4; long pad5; long pad6; };
long chase(struct node *p, long steps) {
	long sum;
	sum = 0;
	while (steps > 0) {
		sum += p->value;
		p = p->next;
		steps--;
	}
	return sum;
}
long descend(struct node *p, long depth, long steps) {
	if (depth == 0) {
		return chase(p, steps);
	}
	return descend(p->next, depth - 1, steps);
}
long main() {
	struct node *a;
	long n;
	long i;
	long j;
	long total;
	n = read_long();
	a = (struct node *) malloc(n * sizeof(struct node));
	j = 0;
	for (i = 0; i < n; i++) {
		a[j].value = i;
		a[j].next = &a[(j + 97) % n];
		j = (j + 97) % n;
	}
	total = 0;
	for (i = 0; i < 64; i++) {
		total += descend(&a[i], i % 5, n / 16);
	}
	write_long(total);
	return 0;
}
`

// TestSpooledRecordsMatchInMemory spools a collect in shards of 7
// records, so the storage of buffered callstacks is reused after every
// shard flush, and requires every record read back from the shard files
// to equal the in-memory collect's, callstack for callstack.
func TestSpooledRecordsMatchInMemory(t *testing.T) {
	prog, err := cc.Compile([]cc.Source{{Name: "descend.mc", Text: descendSrc}}, cc.Options{Name: "descend", HWCProf: true})
	if err != nil {
		t.Fatal(err)
	}
	specs, _ := ParseCounterSpec("+ecrm,17,+ecref,53")
	opts := Options{Counters: specs, Machine: scaled(), Input: []int64{20000}}
	inMem, err := Run(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.SpoolDir = filepath.Join(t.TempDir(), "spool.er")
	opts.SpoolShardEvents = 7
	spooled, err := Run(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	for pic := range experiment.NumPICs {
		want := inMem.Exp.HWC[pic]
		depths := map[int]bool{}
		for _, e := range want {
			depths[len(e.Callstack)] = true
		}
		t.Logf("PIC%d: %d events over %d callstack depths", pic, len(want), len(depths))
		if len(want) < 100 || len(depths) < 3 {
			t.Fatalf("PIC%d: %d events over %d callstack depths; the test needs many shards of varied stacks", pic, len(want), len(depths))
		}
		if len(spooled.Exp.HWC[pic]) != 0 {
			t.Errorf("PIC%d: spooled run kept %d events in memory", pic, len(spooled.Exp.HWC[pic]))
		}
		var got []experiment.HWCEvent
		for i := range spooled.Exp.Shards(pic) {
			recs, err := spooled.Exp.ReadShard(pic, i)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, recs...)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("PIC%d: spooled records differ from the in-memory run's", pic)
		}
		if got, want := spooled.Accuracy[pic], inMem.Accuracy[pic]; got != want || want.Events != len(inMem.Exp.HWC[pic]) {
			t.Errorf("PIC%d: spooled run's accuracy counts %+v, in-memory run's %+v over %d events",
				pic, got, want, len(inMem.Exp.HWC[pic]))
		}
	}
}
