package profd

import (
	"bytes"
	"context"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dsprof/internal/analyzer"
	"dsprof/internal/collect"
)

// serialObjects is the reference rendering: run the same A/B pair
// serially through the collect façade (the path erprint consumes) and
// render the objects report from the in-memory experiments.
func serialObjects(t *testing.T, n int64) []byte {
	t.Helper()
	a, b := specA(n), specB(n)
	prog, input, cfg, err := newBuilder().Resolve(&a)
	if err != nil {
		t.Fatal(err)
	}
	resA, err := collectSpec(context.Background(), prog, input, cfg, &a)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := collectSpec(context.Background(), prog, input, cfg, &b)
	if err != nil {
		t.Fatal(err)
	}
	an, err := analyzer.New(resA.Exp, resB.Exp)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := an.Render(&buf, "objects", analyzer.RenderOpts{}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestParallelJobsDeterministic fans N jobs onto W workers and checks
// that (a) every job completes, (b) each replica of the merged A+B
// study renders byte-identically, and (c) the parallel renderings match
// a serial run of the same pair exactly.
func TestParallelJobsDeterministic(t *testing.T) {
	const n, replicas = 64, 3
	store, sched := newTestService(t, 4)

	type pair struct{ a, b *Job }
	var pairs []pair
	for i := 0; i < replicas; i++ {
		ja, err := sched.Submit(specA(n))
		if err != nil {
			t.Fatal(err)
		}
		jb, err := sched.Submit(specB(n))
		if err != nil {
			t.Fatal(err)
		}
		pairs = append(pairs, pair{ja, jb})
	}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if _, err := sched.WaitAll(ctx); err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		waitState(t, p.a, JobDone)
		waitState(t, p.b, JobDone)
	}
	if got := len(store.List()); got != 2*replicas {
		t.Fatalf("store holds %d experiments, want %d", got, 2*replicas)
	}

	want := serialObjects(t, n)
	for i, p := range pairs {
		a, err := store.Analyzer([]string{p.a.Status().Experiment, p.b.Status().Experiment})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := a.Render(&buf, "objects", analyzer.RenderOpts{}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("replica %d: parallel objects report differs from serial run\n--- parallel ---\n%s\n--- serial ---\n%s",
				i, buf.Bytes(), want)
		}
	}

	m := sched.Metrics()
	if m.Done != 2*replicas || m.Failed != 0 || m.Canceled != 0 {
		t.Errorf("metrics done=%d failed=%d canceled=%d, want %d/0/0",
			m.Done, m.Failed, m.Canceled, 2*replicas)
	}
	if m.SimulatedCycles == 0 {
		t.Error("no simulated cycles recorded")
	}
}

// storeDirEntries returns the non-index entries under the store root.
func storeDirEntries(t *testing.T, store *Store) []string {
	t.Helper()
	entries, err := os.ReadDir(store.Root())
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if e.Name() != indexFile {
			names = append(names, e.Name())
		}
	}
	return names
}

// TestCancelRunningJob cancels a job mid-simulation and checks the VM
// stops promptly and nothing — not even a temp directory — reaches the
// store.
func TestCancelRunningJob(t *testing.T) {
	store, sched := newTestService(t, 1)
	j, err := sched.Submit(spinSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the worker to pick it up.
	deadline := time.Now().Add(30 * time.Second)
	for j.Status().State != JobRunning {
		if time.Now().After(deadline) {
			t.Fatalf("job never started (state %v)", j.Status().State)
		}
		time.Sleep(time.Millisecond)
	}
	if err := sched.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	st := waitState(t, j, JobCanceled)
	if !strings.Contains(st.Error, "canceled") {
		t.Errorf("canceled job error = %q, want mention of cancellation", st.Error)
	}
	if got := len(store.List()); got != 0 {
		t.Errorf("store holds %d experiments after cancellation, want 0", got)
	}
	if names := storeDirEntries(t, store); len(names) != 0 {
		t.Errorf("store root has leftovers after cancellation: %v", names)
	}
	if m := sched.Metrics(); m.Canceled != 1 {
		t.Errorf("canceled metric = %d, want 1", m.Canceled)
	}
}

// TestCancelQueuedJob cancels a job that is still waiting behind a
// busy worker: it must finish immediately, without running.
func TestCancelQueuedJob(t *testing.T) {
	_, sched := newTestService(t, 1)
	blocker, err := sched.Submit(spinSpec())
	if err != nil {
		t.Fatal(err)
	}
	queued, err := sched.Submit(spinSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	st := waitState(t, queued, JobCanceled)
	if !st.Started.IsZero() {
		t.Error("canceled queued job reports a start time")
	}
	sched.Cancel(blocker.ID)
	waitState(t, blocker, JobCanceled)
}

// TestJobTimeout runs a spin program under a tiny per-job timeout.
func TestJobTimeout(t *testing.T) {
	store, sched := newTestService(t, 1)
	spec := spinSpec()
	spec.TimeoutSec = 0.2
	j, err := sched.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitState(t, j, JobFailed)
	if !strings.Contains(st.Error, "deadline") {
		t.Errorf("timed-out job error = %q, want deadline exceeded", st.Error)
	}
	if got := len(store.List()); got != 0 {
		t.Errorf("store holds %d experiments after timeout, want 0", got)
	}
}

// TestRetryTransient swaps the scheduler's runner for one that fails
// transiently before delegating to the real collector.
func TestRetryTransient(t *testing.T) {
	_, sched := newTestService(t, 2)
	var calls atomic.Int64
	real := sched.runner
	sched.runner = func(ctx context.Context, spec *JobSpec) (*collect.Result, error) {
		if calls.Add(1) <= 2 {
			return nil, MarkTransient(errTest)
		}
		return real(ctx, spec)
	}
	spec := specB(16)
	spec.MaxRetries = 3
	j, err := sched.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitState(t, j, JobDone)
	if st.Attempts != 3 {
		t.Errorf("attempts = %d, want 3", st.Attempts)
	}
	if m := sched.Metrics(); m.Retried != 2 {
		t.Errorf("retried metric = %d, want 2", m.Retried)
	}
}

// TestNoRetryOnPermanentFailure: non-transient errors consume no retry
// budget, and exhausted transient retries fail the job.
func TestNoRetryOnPermanentFailure(t *testing.T) {
	_, sched := newTestService(t, 1)
	var calls atomic.Int64
	sched.runner = func(ctx context.Context, spec *JobSpec) (*collect.Result, error) {
		calls.Add(1)
		return nil, errTest
	}
	spec := specB(16)
	spec.MaxRetries = 5
	j, err := sched.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, JobFailed)
	if calls.Load() != 1 {
		t.Errorf("permanent failure ran %d attempts, want 1", calls.Load())
	}

	sched.runner = func(ctx context.Context, spec *JobSpec) (*collect.Result, error) {
		calls.Add(1)
		return nil, MarkTransient(errTest)
	}
	calls.Store(0)
	spec.MaxRetries = 2
	j2, err := sched.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitState(t, j2, JobFailed)
	if calls.Load() != 3 || st.Attempts != 3 {
		t.Errorf("exhausted retries: calls=%d attempts=%d, want 3/3", calls.Load(), st.Attempts)
	}
}

// TestQueueFull: with a single busy worker and depth-1 queue, a third
// submission fails fast.
func TestQueueFull(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sched := NewScheduler(store, SchedulerConfig{Workers: 1, QueueDepth: 1})
	defer sched.Close()

	j1, err := sched.Submit(spinSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the worker drains the queue slot.
	deadline := time.Now().Add(30 * time.Second)
	for j1.Status().State != JobRunning {
		if time.Now().After(deadline) {
			t.Fatal("blocker never started")
		}
		time.Sleep(time.Millisecond)
	}
	j2, err := sched.Submit(spinSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sched.Submit(spinSpec()); err == nil || !strings.Contains(err.Error(), "queue full") {
		t.Errorf("third submit = %v, want queue full", err)
	}
	sched.Cancel(j1.ID)
	sched.Cancel(j2.ID)
}

// TestSchedulerClose: Close cancels in-flight work and later submits
// are rejected.
func TestSchedulerClose(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sched := NewScheduler(store, SchedulerConfig{Workers: 2})
	j, err := sched.Submit(spinSpec())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { sched.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("Close did not drain")
	}
	if st := j.Status(); st.State != JobCanceled {
		t.Errorf("in-flight job after Close: %v, want canceled", st.State)
	}
	if _, err := sched.Submit(spinSpec()); err == nil || !strings.Contains(err.Error(), "shut down") {
		t.Errorf("submit after Close = %v, want shutdown error", err)
	}
	sched.Close() // idempotent
}

// TestBuilderMemoizesCompiles: many jobs over one source must compile
// it exactly once.
func TestBuilderMemoizesCompiles(t *testing.T) {
	b := newBuilder()
	spec1, spec2 := specA(16), specB(16)
	p1, _, _, err := b.Resolve(&spec1)
	if err != nil {
		t.Fatal(err)
	}
	p2, _, _, err := b.Resolve(&spec2)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("same source resolved to distinct program objects")
	}
	if len(b.progs) != 1 {
		t.Errorf("builder holds %d compile entries, want 1", len(b.progs))
	}
	other := specA(16)
	other.Source = spinSrc
	other.Name = "spin"
	p3, _, _, err := b.Resolve(&other)
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p1 {
		t.Error("different sources shared one compile")
	}
}

// TestCancelUnknownJob covers the error path.
func TestCancelUnknownJob(t *testing.T) {
	_, sched := newTestService(t, 1)
	if err := sched.Cancel("job-999"); err == nil {
		t.Error("cancel of unknown job succeeded")
	}
}
