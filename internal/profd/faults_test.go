package profd

// faults_test.go exercises the crash-safety seams: scheduler
// retry/backoff timing under a fake clock, and the store's
// Put-under-fault behaviour (graceful degradation and
// consistency under every single-fault schedule).

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dsprof/internal/collect"
	"dsprof/internal/experiment"
	"dsprof/internal/faultfs"
)

// fakeClock records the backoff delays the scheduler requests instead
// of sleeping, so retry tests run in microseconds and can assert the
// exact delay sequence.
type fakeClock struct {
	mu     sync.Mutex
	delays []time.Duration
}

func (c *fakeClock) Sleep(ctx context.Context, d time.Duration) {
	c.mu.Lock()
	c.delays = append(c.delays, d)
	c.mu.Unlock()
}

func (c *fakeClock) Delays() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Duration(nil), c.delays...)
}

// TestRetryBackoffDelays: a job that fails transiently four times
// sleeps before every retry, with exponentially growing, capped,
// jittered delays — and the eventual success stores exactly one
// experiment directory.
func TestRetryBackoffDelays(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	base, cap_ := 100*time.Millisecond, 400*time.Millisecond
	sched := NewScheduler(store, SchedulerConfig{
		Workers: 1, QueueDepth: 8,
		RetryBackoff: base, RetryBackoffMax: cap_,
	})
	t.Cleanup(sched.Close)
	clk := &fakeClock{}
	sched.clock = clk

	const failures = 4
	var calls atomic.Int64
	real := sched.runner
	sched.runner = func(ctx context.Context, spec *JobSpec) (*collect.Result, error) {
		if calls.Add(1) <= failures {
			return nil, MarkTransient(errTest)
		}
		return real(ctx, spec)
	}
	spec := specB(16)
	spec.MaxRetries = failures
	j, err := sched.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitState(t, j, JobDone)
	if st.Attempts != failures+1 {
		t.Errorf("attempts = %d, want %d", st.Attempts, failures+1)
	}
	if m := sched.Metrics(); m.Retried != failures {
		t.Errorf("retried metric = %d, want %d", m.Retried, failures)
	}

	delays := clk.Delays()
	if len(delays) != failures {
		t.Fatalf("scheduler slept %d times, want %d (delays %v)", len(delays), failures, delays)
	}
	// Raw exponential schedule: base, 2*base, 4*base (= cap), cap.
	raw := []time.Duration{base, 2 * base, cap_, cap_}
	for i, d := range delays {
		lo := time.Duration(float64(raw[i]) * 0.75)
		hi := time.Duration(float64(raw[i]) * 1.25)
		if d < lo || d > hi {
			t.Errorf("retry %d slept %v, want within [%v, %v] (jittered %v)", i, d, lo, hi, raw[i])
		}
	}
	// Jitter must actually vary the delays: the two capped retries use
	// the same raw delay, so identical values would mean no jitter.
	if delays[2] == delays[3] {
		t.Errorf("capped retries slept identically (%v): jitter is not applied", delays[2])
	}

	// Retries must not leave duplicate or stray experiment dirs behind.
	if got := len(store.List()); got != 1 {
		t.Fatalf("store holds %d experiments after retries, want 1", got)
	}
	entries, err := os.ReadDir(store.Root())
	if err != nil {
		t.Fatal(err)
	}
	var dirs []string
	for _, e := range entries {
		if e.IsDir() {
			dirs = append(dirs, e.Name())
		}
	}
	if len(dirs) != 1 || !strings.HasSuffix(dirs[0], ".er") {
		t.Errorf("store root holds dirs %v, want exactly one .er directory", dirs)
	}
}

// TestBackoffCancelledPromptly: cancelling a job mid-backoff ends it
// without burning the rest of the retry budget's real time.
func TestBackoffCancelledPromptly(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sched := NewScheduler(store, SchedulerConfig{
		Workers: 1, QueueDepth: 8,
		// Long enough that a non-cancellable sleep would blow the test's
		// deadline, short enough not to stall a failing run forever.
		RetryBackoff: 30 * time.Second, RetryBackoffMax: 30 * time.Second,
	})
	t.Cleanup(sched.Close)

	entered := make(chan struct{}, 8)
	sched.runner = func(ctx context.Context, spec *JobSpec) (*collect.Result, error) {
		entered <- struct{}{}
		return nil, MarkTransient(errTest)
	}
	spec := specB(16)
	spec.MaxRetries = 5
	j, err := sched.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-entered // first attempt has failed; the worker is in (or entering) backoff
	if err := sched.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, j, JobCanceled)
}

// makeExperiment collects one small in-memory experiment for store
// tests.
func makeExperiment(t *testing.T) (*JobSpec, *experiment.Experiment) {
	t.Helper()
	spec := specB(16)
	prog, input, cfg, err := newBuilder().Resolve(&spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := collectSpec(context.Background(), prog, input, cfg, &spec)
	if err != nil {
		t.Fatal(err)
	}
	return &spec, res.Exp
}

// TestPutFaultSweep drives Put under a single injected write error at
// every operation index of its I/O sequence. Every outcome must be
// clean: either Put fails and the root holds no committed experiment
// (orphaned temp state is allowed and swept on reopen), or Put
// succeeds — possibly degraded — and the committed directory loads.
func TestPutFaultSweep(t *testing.T) {
	spec, exp := makeExperiment(t)

	// Discover the op count of a fault-free Put.
	probe := faultfs.NewInjected(faultfs.OS, faultfs.Schedule{Op: 1 << 30})
	store, err := OpenStoreFS(probe, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Put(spec, exp); err != nil {
		t.Fatal(err)
	}
	total := probe.Ops()
	if total < 20 {
		t.Fatalf("fault-free Put used only %d ops; the sweep would be vacuous", total)
	}

	degraded, failed := 0, 0
	for op := 1; op <= total; op++ {
		inj := faultfs.NewInjected(faultfs.OS, faultfs.Schedule{Op: op, Mode: faultfs.ModeError})
		root := t.TempDir()
		st, err := OpenStoreFS(inj, root)
		if err != nil {
			// The fault hit store setup; nothing to check.
			continue
		}
		rec, err := st.Put(spec, exp)
		if err != nil {
			failed++
			if got := len(st.List()); got != 0 {
				t.Errorf("op %d: failed Put left %d indexed experiments", op, got)
			}
			continue
		}
		dir := filepath.Join(root, rec.Dir)
		if _, err := experiment.Load(dir); err != nil {
			t.Errorf("op %d: committed experiment does not load: %v", op, err)
		}
		if rec.Degraded != "" {
			degraded++
		}
		// Reopening the store must see exactly this one experiment.
		st2, err := OpenStore(root)
		if err != nil {
			t.Errorf("op %d: reopening store: %v", op, err)
			continue
		}
		if got := len(st2.List()); got != 1 {
			t.Errorf("op %d: reopened store sees %d experiments, want 1", op, got)
		}
	}
	t.Logf("put fault sweep: %d ops, %d failed cleanly, %d committed degraded", total, failed, degraded)
	if degraded == 0 {
		t.Errorf("no injection point produced a degraded commit; the graceful-degradation path is untested")
	}
}

// TestPutDegradedMarksRecord: a fault that damages the shard stream
// mid-save commits a degraded experiment whose record and meta both
// carry the recovery note, and whose salvaged events load.
func TestPutDegradedMarksRecord(t *testing.T) {
	spec, exp := makeExperiment(t)

	// Find an op whose failure yields a degraded commit by sweeping
	// until one is seen (deterministic: the first qualifying op is
	// always the same for a given experiment).
	probe := faultfs.NewInjected(faultfs.OS, faultfs.Schedule{Op: 1 << 30})
	st0, err := OpenStoreFS(probe, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st0.Put(spec, exp); err != nil {
		t.Fatal(err)
	}
	for op := 1; op <= probe.Ops(); op++ {
		inj := faultfs.NewInjected(faultfs.OS, faultfs.Schedule{Op: op, Mode: faultfs.ModeError})
		root := t.TempDir()
		st, err := OpenStoreFS(inj, root)
		if err != nil {
			continue
		}
		rec, err := st.Put(spec, exp)
		if err != nil || rec.Degraded == "" {
			continue
		}
		dir := filepath.Join(root, rec.Dir)
		got, err := experiment.Load(dir)
		if err != nil {
			t.Fatalf("op %d: degraded experiment does not load: %v", op, err)
		}
		if got.Meta.Degraded == "" {
			t.Errorf("op %d: degraded commit but Meta.Degraded is empty", op)
		}
		if !strings.HasPrefix(rec.Degraded, "recovered:") {
			t.Errorf("op %d: record degraded note %q lacks the recovery prefix", op, rec.Degraded)
		}
		return
	}
	t.Fatal("no injection point produced a degraded commit")
}
