package profd

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dsprof/internal/collect"
)

// TestDrainFinishesInFlightJobs asserts graceful shutdown completes
// queued and running jobs instead of cancelling them.
func TestDrainFinishesInFlightJobs(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var started atomic.Int64
	release := make(chan struct{})
	s := NewScheduler(store, SchedulerConfig{
		Workers: 2,
		Runner: func(ctx context.Context, spec *JobSpec) (*collect.Result, error) {
			started.Add(1)
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return runTinyJob(ctx, spec)
		},
	})
	var jobs []*Job
	for i := 0; i < 4; i++ {
		j, err := s.Submit(tinySpec())
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	for started.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.Drain(ctx)
	for _, j := range jobs {
		if st := j.Status(); st.State != JobDone {
			t.Errorf("job %s after drain: state %s (%s), want done", st.ID, st.State, st.Error)
		}
	}
	if _, err := s.Submit(tinySpec()); err == nil {
		t.Error("Submit succeeded after Drain")
	}
}

// TestDrainDeadlineCancels asserts an expired drain deadline falls back
// to cancellation rather than hanging.
func TestDrainDeadlineCancels(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(store, SchedulerConfig{
		Workers: 1,
		Runner: func(ctx context.Context, spec *JobSpec) (*collect.Result, error) {
			<-ctx.Done() // runs until cancelled
			return nil, ctx.Err()
		},
	})
	j, err := s.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	done := make(chan struct{})
	go func() { s.Drain(ctx); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Drain hung past its deadline")
	}
	if st := j.Status(); st.State != JobCanceled {
		t.Errorf("job state %s, want canceled", st.State)
	}
}

// TestQueueFullRetryAfter asserts the HTTP surface signals back-pressure
// with 503 + Retry-After when the bounded queue is full.
func TestQueueFullRetryAfter(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	block := make(chan struct{})
	defer close(block)
	s := NewScheduler(store, SchedulerConfig{
		Workers:    1,
		QueueDepth: 1,
		Runner: func(ctx context.Context, spec *JobSpec) (*collect.Result, error) {
			select {
			case <-block:
			case <-ctx.Done():
			}
			return nil, ctx.Err()
		},
	})
	defer s.Close()
	srv := httptest.NewServer(NewServer(s, store).Handler())
	defer srv.Close()

	submit := func() *http.Response {
		body, _ := json.Marshal(tinySpec())
		resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	// One job occupies the worker, one fills the queue; keep submitting
	// until back-pressure appears (the first submission may drain into
	// the worker before the second lands).
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp := submit()
		if resp.StatusCode == http.StatusServiceUnavailable {
			if ra := resp.Header.Get("Retry-After"); ra == "" {
				t.Error("503 without Retry-After header")
			}
			return
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("unexpected status %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
	}
}

// tinySpec is a minimal valid job spec for scheduler-level tests whose
// runner is stubbed.
func tinySpec() JobSpec {
	return JobSpec{Program: ProgramMCF, Trips: 40, Clock: true, MachineConfig: "scaled"}
}

// runTinyJob actually executes the spec (shared builder semantics are
// irrelevant here, so a throwaway builder is fine).
func runTinyJob(ctx context.Context, spec *JobSpec) (*collect.Result, error) {
	b := newBuilder()
	prog, input, cfg, err := b.Resolve(spec)
	if err != nil {
		return nil, err
	}
	return collectSpec(ctx, prog, input, cfg, spec)
}
