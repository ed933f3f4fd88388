package profd

// Shared test fixtures: a small two-struct workload (pointer chase +
// sequential scan, the shape of the paper's MCF study at toy scale) and
// a long-running spin program for cancellation/timeout tests.

import (
	"context"
	"testing"
	"time"

	"dsprof/internal/asm"
	"dsprof/internal/collect"
	"dsprof/internal/core"
	"dsprof/internal/machine"
)

const wlSrc = `
struct item { long weight; struct item *next; long pad1; long pad2; long pad3; long pad4; long pad5; long pad6; };
struct cell { long a; long b; };
struct item *items;
struct cell *cells;
long nitems;
void build() {
	long i;
	long j;
	items = (struct item *) malloc(nitems * sizeof(struct item));
	cells = (struct cell *) malloc(nitems * 4 * sizeof(struct cell));
	j = 0;
	for (i = 0; i < nitems; i++) {
		items[j].weight = i;
		items[j].next = &items[(j + 97) % nitems];
		j = (j + 97) % nitems;
	}
	for (i = 0; i < nitems * 4; i++) { cells[i].a = i; cells[i].b = 2 * i; }
}
long chase(long steps) {
	struct item *p;
	long sum;
	sum = 0;
	p = items;
	while (steps > 0) { sum += p->weight; p = p->next; steps--; }
	return sum;
}
long scan(long reps) {
	long i;
	long r;
	long sum;
	sum = 0;
	for (r = 0; r < reps; r++) {
		for (i = 0; i < nitems * 4; i++) { sum += cells[i].a; }
	}
	return sum;
}
long main() {
	nitems = read_long();
	build();
	write_long(chase(nitems * 4));
	write_long(scan(2));
	return 0;
}
`

// spinSrc runs for billions of instructions — far longer than any test
// waits — so cancellation and timeouts always land mid-run.
const spinSrc = `
long main() {
	long i;
	long s;
	i = 0;
	s = 0;
	while (i < 1000000000) { s = s + i; i = i + 1; }
	return s;
}
`

// collectSpec runs spec's collect through the core façade on a program,
// input and machine already resolved from it: the serial reference the
// scheduler's runs are compared against.
func collectSpec(ctx context.Context, prog *asm.Program, input []int64, cfg *machine.Config, spec *JobSpec) (*collect.Result, error) {
	return core.CollectRun(ctx, prog, spec.Counters, collect.Options{
		ClockProfile:        spec.Clock,
		ClockIntervalCycles: spec.ClockIntervalCycles,
		Machine:             cfg,
		Input:               input,
	})
}

// specA is the paper's experiment A shape: clock + E$ stall + E$ read
// misses, with apropos backtracking.
func specA(n int64) JobSpec {
	return JobSpec{
		Source: wlSrc, Name: "wl", Input: []int64{n},
		Clock: true, ClockIntervalCycles: 9001,
		Counters:      "+ecstall,2003,+ecrm,509",
		MachineConfig: "scaled",
	}
}

// specB is experiment B: E$ references + DTLB misses.
func specB(n int64) JobSpec {
	return JobSpec{
		Source: wlSrc, Name: "wl", Input: []int64{n},
		Counters:      "+ecref,1009,+dtlbm,251",
		MachineConfig: "scaled",
	}
}

func spinSpec() JobSpec {
	return JobSpec{Source: spinSrc, Name: "spin", Clock: true, MachineConfig: "scaled"}
}

func newTestService(t *testing.T, workers int) (*Store, *Scheduler) {
	t.Helper()
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sched := NewScheduler(store, SchedulerConfig{Workers: workers, QueueDepth: 64})
	t.Cleanup(sched.Close)
	return store, sched
}

func waitState(t *testing.T, j *Job, want JobState) JobStatus {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s stuck in %v", j.ID, j.Status().State)
	}
	st := j.Status()
	if st.State != want {
		t.Fatalf("job %s finished %v (%s), want %v", j.ID, st.State, st.Error, want)
	}
	return st
}

func TestJobSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec JobSpec
		ok   bool
	}{
		{"mcf ok", JobSpec{Program: "mcf", Clock: true}, true},
		{"source ok", JobSpec{Source: "long main() { return 0; }", Clock: true}, true},
		{"no program", JobSpec{Clock: true}, false},
		{"both program and source", JobSpec{Program: "mcf", Source: "x", Clock: true}, false},
		{"nothing profiled", JobSpec{Program: "mcf"}, false},
		{"bad counters", JobSpec{Program: "mcf", Counters: "bogus,on"}, false},
		{"three counters", JobSpec{Program: "mcf", Counters: "ecstall,on,ecrm,on,ecref,on"}, false},
		{"bad layout", JobSpec{Program: "mcf", Layout: "weird", Clock: true}, false},
		{"bad machine", JobSpec{Program: "mcf", Clock: true, MachineConfig: "cray"}, false},
		{"negative timeout", JobSpec{Program: "mcf", Clock: true, TimeoutSec: -1}, false},
	}
	for _, c := range cases {
		if err := c.spec.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestConfigHash(t *testing.T) {
	a, b := specA(100), specA(100)
	if a.ConfigHash() != b.ConfigHash() {
		t.Error("identical specs hash differently")
	}
	b.Counters = "+dtlbm,on"
	if a.ConfigHash() == b.ConfigHash() {
		t.Error("different counter specs hash equal")
	}
	c := specA(100)
	c.Input = []int64{101}
	if a.ConfigHash() == c.ConfigHash() {
		t.Error("different inputs hash equal")
	}

	// Store directory names and the index embed the hash, so its value
	// must never drift: a stored experiment would stop answering its own
	// spec. Never regenerate these literals to make the test pass.
	pinned := []struct {
		spec JobSpec
		want string
	}{
		{JobSpec{Program: ProgramMCF, Layout: "paper", Trips: 120, Seed: 20030717,
			Clock: true, Counters: "+ecstall,20011,+ecrm,509", MachineConfig: "scaled"},
			"843a17b9fe895859"},
		{JobSpec{Program: ProgramNBody, Layout: "compressed", Trips: 400, Seed: 20030717,
			Clock: true, ClockIntervalCycles: 9001, Counters: "+ecstall,2003,+ecrm,251",
			MachineConfig: "scaled", Provenance: true},
			"75f7a0eaac3f105e"},
		{JobSpec{Source: "long main() { return 0; }", Name: "tiny", Input: []int64{1, 2, 3},
			Counters: "+ecref,1009,+dtlbm,251", PageSizeHeap: 512 << 10},
			"3b541c0e7fae7fe7"},
	}
	for _, p := range pinned {
		if got := p.spec.ConfigHash(); got != p.want {
			t.Errorf("ConfigHash(%+v) = %s, want %s", p.spec, got, p.want)
		}
	}
}

func TestTransientMarking(t *testing.T) {
	if IsTransient(nil) || MarkTransient(nil) != nil {
		t.Error("nil mishandled")
	}
	err := MarkTransient(errTest)
	if !IsTransient(err) {
		t.Error("marked error not transient")
	}
	if IsTransient(errTest) {
		t.Error("plain error transient")
	}
}

var errTest = &testError{}

type testError struct{}

func (*testError) Error() string { return "test error" }
