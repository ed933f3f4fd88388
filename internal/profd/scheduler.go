package profd

// scheduler.go fans profiling jobs out to a bounded pool of workers,
// each driving an independent VM instance. Runs are embarrassingly
// parallel: programs are compiled once and shared read-only, every
// worker owns its machine, and completed experiments funnel into the
// store. Jobs carry per-job timeouts, cooperative cancellation, and a
// retry budget for transient failures.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dsprof/internal/collect"
	"dsprof/internal/core"
	"dsprof/internal/xrand"
)

// SchedulerConfig sizes the worker pool and queue.
type SchedulerConfig struct {
	// Workers is the number of concurrent VM instances (default 4).
	Workers int
	// QueueDepth bounds the submission queue (default 256); Submit
	// fails fast when the queue is full.
	QueueDepth int
	// DefaultTimeout applies to jobs that set no TimeoutSec (0 = none).
	DefaultTimeout time.Duration
	// RetryBackoff is the delay before the first retry of a transiently
	// failed job; each further retry doubles it, capped at
	// RetryBackoffMax, with ±25% deterministic jitter so a burst of
	// same-fault jobs does not retry in lockstep (default 50ms).
	RetryBackoff time.Duration
	// RetryBackoffMax caps the exponential backoff (default 2s).
	RetryBackoffMax time.Duration
	// Runner, when non-nil, replaces the local VM pool's executor: each
	// worker slot calls it instead of compiling and simulating in
	// process. The cluster coordinator installs a remote executor here
	// that fans jobs out to registered worker nodes; the returned
	// result may carry only the experiment (Machine nil).
	Runner Runner
}

func (c SchedulerConfig) withDefaults() SchedulerConfig {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 50 * time.Millisecond
	}
	if c.RetryBackoffMax <= 0 {
		c.RetryBackoffMax = 2 * time.Second
	}
	return c
}

// clock abstracts the retry delay so tests drive backoff with a fake
// clock instead of real sleeps.
type clock interface {
	// Sleep waits for d or until ctx is cancelled.
	Sleep(ctx context.Context, d time.Duration)
}

type realClock struct{}

func (realClock) Sleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// Job is one scheduled profiling run.
type Job struct {
	ID   string
	Spec JobSpec

	mu        sync.Mutex
	state     JobState
	err       string
	attempts  int
	expID     string
	cycles    uint64
	submitted time.Time
	started   time.Time
	finished  time.Time

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}
}

// JobStatus is a racy-free snapshot of a job, as served by the API.
type JobStatus struct {
	ID         string    `json:"id"`
	State      JobState  `json:"state"`
	Spec       JobSpec   `json:"spec"`
	Error      string    `json:"error,omitempty"`
	Attempts   int       `json:"attempts"`
	Experiment string    `json:"experiment,omitempty"`
	Cycles     uint64    `json:"cycles,omitempty"`
	Submitted  time.Time `json:"submitted"`
	Started    time.Time `json:"started,omitzero"`
	Finished   time.Time `json:"finished,omitzero"`
}

// Status returns a consistent snapshot.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID: j.ID, State: j.state, Spec: j.Spec, Error: j.err,
		Attempts: j.attempts, Experiment: j.expID, Cycles: j.cycles,
		Submitted: j.submitted, Started: j.started, Finished: j.finished,
	}
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks until the job finishes or ctx is cancelled, returning the
// final status.
func (j *Job) Wait(ctx context.Context) (JobStatus, error) {
	select {
	case <-j.done:
		return j.Status(), nil
	case <-ctx.Done():
		return j.Status(), ctx.Err()
	}
}

// Runner executes one validated job spec and returns the collect
// result. The scheduler's default runner resolves the program through
// the shared builder and calls the core collect façade; tests swap it
// to inject failures.
type Runner func(ctx context.Context, spec *JobSpec) (*collect.Result, error)

// Scheduler owns the worker pool, the job table, and service counters.
type Scheduler struct {
	store *Store
	cfg   SchedulerConfig
	build *builder

	queue  chan *Job
	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string
	seq    int
	closed bool

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	runner Runner
	clock  clock

	jitterMu sync.Mutex
	jitter   *xrand.Rand

	queued   atomic.Int64
	running  atomic.Int64
	done     atomic.Int64
	failed   atomic.Int64
	canceled atomic.Int64
	retried  atomic.Int64
	cycles   atomic.Uint64
}

// NewScheduler starts a scheduler whose completed experiments persist
// into store.
func NewScheduler(store *Store, cfg SchedulerConfig) *Scheduler {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Scheduler{
		store:      store,
		cfg:        cfg,
		build:      newBuilder(),
		queue:      make(chan *Job, cfg.QueueDepth),
		jobs:       make(map[string]*Job),
		baseCtx:    ctx,
		baseCancel: cancel,
	}
	s.runner = s.collectJob
	if cfg.Runner != nil {
		s.runner = cfg.Runner
	}
	s.clock = realClock{}
	s.jitter = xrand.New(0x9e3779b97f4a7c15)
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// collectJob is the default runner: resolve program/input/machine (the
// compile memoized across jobs) and run the collector under ctx.
func (s *Scheduler) collectJob(ctx context.Context, spec *JobSpec) (*collect.Result, error) {
	prog, input, cfg, err := s.build.Resolve(spec)
	if err != nil {
		return nil, err
	}
	return core.CollectRun(ctx, prog, spec.Counters, collect.Options{
		ClockProfile:        spec.Clock,
		ClockIntervalCycles: spec.ClockIntervalCycles,
		Machine:             cfg,
		Input:               input,
		Provenance:          spec.Provenance,
	})
}

// Submit validates and queues a job, returning it immediately.
func (s *Scheduler) Submit(spec JobSpec) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, errors.New("profd: scheduler is shut down")
	}
	s.seq++
	id := fmt.Sprintf("job-%d", s.seq)
	ctx, cancel := context.WithCancel(s.baseCtx)
	j := &Job{
		ID: id, Spec: spec, state: JobQueued, submitted: time.Now(),
		ctx: ctx, cancel: cancel, done: make(chan struct{}),
	}
	// The send stays under s.mu so Close (which also takes s.mu before
	// closing the queue) can never close the channel mid-send.
	select {
	case s.queue <- j:
		s.jobs[id] = j
		s.order = append(s.order, id)
		s.mu.Unlock()
		s.queued.Add(1)
		return j, nil
	default:
		s.seq--
		s.mu.Unlock()
		cancel()
		return nil, fmt.Errorf("%w (%d jobs)", ErrQueueFull, s.cfg.QueueDepth)
	}
}

// Get looks up a job by ID.
func (s *Scheduler) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns every job in submission order.
func (s *Scheduler) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// Cancel cancels a job: a queued job finishes immediately as canceled,
// a running job's VM stops at the next cancellation check and no
// experiment is stored. Cancelling a finished job is a no-op.
func (s *Scheduler) Cancel(id string) error {
	j, ok := s.Get(id)
	if !ok {
		return fmt.Errorf("profd: no job %q", id)
	}
	j.mu.Lock()
	switch j.state {
	case JobQueued:
		j.state = JobCanceled
		j.err = "canceled before start"
		j.finished = time.Now()
		close(j.done)
		j.mu.Unlock()
		j.cancel()
		s.queued.Add(-1)
		s.canceled.Add(1)
		return nil
	case JobRunning:
		j.mu.Unlock()
		j.cancel()
		return nil
	default:
		j.mu.Unlock()
		return nil
	}
}

// ErrQueueFull is returned by Submit when the bounded queue is at
// capacity; the HTTP layer maps it to 503 + Retry-After.
var ErrQueueFull = errors.New("profd: queue full")

// Drain gracefully shuts the scheduler down: it stops accepting new
// jobs, lets every queued and running job finish (rather than
// cancelling them, as Close does), then closes the pool. If ctx expires
// first, the remaining jobs are cancelled Close-style. Either way the
// scheduler is fully stopped on return.
func (s *Scheduler) Drain(ctx context.Context) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true // Submit now refuses; queued jobs keep draining
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Jobs cannot be added anymore, so one pass over the current
		// table waits for everything in flight.
		for _, j := range s.Jobs() {
			select {
			case <-j.Done():
			case <-ctx.Done():
				return
			}
		}
	}()
	select {
	case <-done:
	case <-ctx.Done():
	}
	s.baseCancel() // cancels stragglers only when ctx expired
	close(s.queue)
	s.wg.Wait()
}

// Close stops accepting jobs, cancels everything in flight, and waits
// for the workers to drain.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.baseCancel()
	close(s.queue)
	s.wg.Wait()
}

func (s *Scheduler) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runOne(j)
	}
}

// runOne drives one job through its attempts to a terminal state.
func (s *Scheduler) runOne(j *Job) {
	j.mu.Lock()
	if j.state != JobQueued { // canceled while queued
		j.mu.Unlock()
		return
	}
	j.state = JobRunning
	j.started = time.Now()
	j.mu.Unlock()
	s.queued.Add(-1)
	s.running.Add(1)
	defer s.running.Add(-1)

	ctx := j.ctx
	timeout := s.cfg.DefaultTimeout
	if j.Spec.TimeoutSec > 0 {
		timeout = time.Duration(j.Spec.TimeoutSec * float64(time.Second))
	}
	var cancelTimeout context.CancelFunc
	if timeout > 0 {
		ctx, cancelTimeout = context.WithTimeout(ctx, timeout)
		defer cancelTimeout()
	}

	var (
		res *collect.Result
		err error
	)
	for attempt := 0; ; attempt++ {
		j.mu.Lock()
		j.attempts = attempt + 1
		j.mu.Unlock()
		res, err = s.runner(ctx, &j.Spec)
		if err == nil || ctx.Err() != nil || !IsTransient(err) || attempt >= j.Spec.MaxRetries {
			break
		}
		s.retried.Add(1)
		// Back off before the retry: exponential in the attempt number,
		// capped, jittered. The sleep honours cancellation, so a Cancel
		// or shutdown mid-backoff ends the job promptly.
		s.clock.Sleep(ctx, s.backoff(attempt))
	}
	// A cancellation that landed during backoff (rather than inside the
	// runner) leaves the transient error in err; classify it as the
	// cancellation it is.
	if err != nil && errors.Is(ctx.Err(), context.Canceled) {
		err = ctx.Err()
	}

	finish := func(state JobState, msg string) {
		j.mu.Lock()
		j.state = state
		j.err = msg
		j.finished = time.Now()
		close(j.done)
		j.mu.Unlock()
	}

	switch {
	case err != nil:
		// Cancellation (including scheduler shutdown) is a canceled
		// job; a timeout or simulation error is a failure. Either way
		// nothing reaches the store.
		if errors.Is(err, context.Canceled) {
			s.canceled.Add(1)
			finish(JobCanceled, err.Error())
		} else {
			s.failed.Add(1)
			finish(JobFailed, err.Error())
		}
	default:
		// A remote executor ships back the experiment without the
		// machine it ran on; the run statistics live in the experiment
		// header either way.
		st := res.Exp.Meta.Stats
		if res.Machine != nil {
			st = res.Machine.Stats()
		}
		s.cycles.Add(st.Cycles)
		rec, perr := s.store.Put(&j.Spec, res.Exp)
		if perr != nil {
			s.failed.Add(1)
			finish(JobFailed, perr.Error())
			return
		}
		j.mu.Lock()
		j.expID = rec.ID
		j.cycles = st.Cycles
		j.mu.Unlock()
		s.done.Add(1)
		finish(JobDone, "")
	}
}

// backoff computes the delay before the retry following failed attempt
// number attempt (0-based): RetryBackoff << attempt, capped at
// RetryBackoffMax, scaled by a deterministic jitter factor in
// [0.75, 1.25).
func (s *Scheduler) backoff(attempt int) time.Duration {
	d := s.cfg.RetryBackoff
	for i := 0; i < attempt && d < s.cfg.RetryBackoffMax; i++ {
		d *= 2
	}
	if d > s.cfg.RetryBackoffMax {
		d = s.cfg.RetryBackoffMax
	}
	s.jitterMu.Lock()
	f := 0.75 + 0.5*s.jitter.Float64()
	s.jitterMu.Unlock()
	return time.Duration(float64(d) * f)
}

// Metrics is a snapshot of the service counters.
type Metrics struct {
	Workers         int    `json:"workers"`
	Busy            int64  `json:"busyWorkers"`
	Queued          int64  `json:"jobsQueued"`
	Running         int64  `json:"jobsRunning"`
	Done            int64  `json:"jobsDone"`
	Failed          int64  `json:"jobsFailed"`
	Canceled        int64  `json:"jobsCanceled"`
	Retried         int64  `json:"jobsRetried"`
	SimulatedCycles uint64 `json:"simulatedCycles"`
	CacheHits       uint64 `json:"analyzerCacheHits"`
	CacheMisses     uint64 `json:"analyzerCacheMisses"`
	Experiments     int    `json:"experiments"`
}

// Metrics returns the current service counters.
func (s *Scheduler) Metrics() Metrics {
	hits, misses := s.store.CacheStats()
	return Metrics{
		Workers:         s.cfg.Workers,
		Busy:            s.running.Load(),
		Queued:          s.queued.Load(),
		Running:         s.running.Load(),
		Done:            s.done.Load(),
		Failed:          s.failed.Load(),
		Canceled:        s.canceled.Load(),
		Retried:         s.retried.Load(),
		SimulatedCycles: s.cycles.Load(),
		CacheHits:       hits,
		CacheMisses:     misses,
		Experiments:     s.store.Count(),
	}
}

// WaitAll blocks until every currently known job is terminal or ctx is
// cancelled; it returns the jobs in submission order.
func (s *Scheduler) WaitAll(ctx context.Context) ([]*Job, error) {
	jobs := s.Jobs()
	for _, j := range jobs {
		select {
		case <-j.Done():
		case <-ctx.Done():
			return jobs, ctx.Err()
		}
	}
	return jobs, nil
}
