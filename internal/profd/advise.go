package profd

// advise.go runs the closed advisor loop as a service job: a baseline
// two-experiment MCF collection through the ordinary scheduler (so the
// runs share the worker pool, builder memo and store with every other
// job), then the data-layout advisor and its validation re-runs. Both
// baseline jobs are submitted before either is waited on, so a
// multi-worker scheduler runs them together. The validation re-runs
// execute in advisor.Validate, called from the adviser's goroutine, on
// up to GOMAXPROCS goroutines of its own, outside the scheduler's
// worker bound. The validation experiments are stored like any other,
// so the before/after profiles stay queryable through the report API
// afterwards.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dsprof/internal/advisor"
	"dsprof/internal/analyzer"
	"dsprof/internal/core"
)

// AdviseSpec describes one advisor loop over the built-in MCF workload.
type AdviseSpec struct {
	Trips         int     `json:"trips,omitempty"`  // instance size (default 1200)
	Seed          uint64  `json:"seed,omitempty"`   // instance seed (default 20030717)
	Layout        string  `json:"layout,omitempty"` // "paper" (default) or "optimized"
	MachineConfig string  `json:"machine,omitempty"`
	Window        int     `json:"window,omitempty"`   // affinity window (default 16)
	MinShare      float64 `json:"minShare,omitempty"` // struct share threshold (default 0.05)
	MaxRecs       int     `json:"maxRecs,omitempty"`  // recommendation cap (default 20)
	TimeoutSec    float64 `json:"timeoutSec,omitempty"`
}

// Validate checks the spec at the API boundary.
func (s *AdviseSpec) Validate() error {
	if _, err := core.MCF.Layout(s.Layout); err != nil {
		return fmt.Errorf("profd: %w", err)
	}
	if _, err := core.MachineConfig(s.MachineConfig); err != nil {
		return fmt.Errorf("profd: %w", err)
	}
	if s.Trips < 0 {
		return fmt.Errorf("profd: negative trips %d", s.Trips)
	}
	if s.Window < 0 || s.MinShare < 0 || s.MinShare > 1 || s.MaxRecs < 0 || s.TimeoutSec < 0 {
		return errors.New("profd: advise parameters must be non-negative (minShare at most 1)")
	}
	return nil
}

func (s *AdviseSpec) withDefaults() AdviseSpec {
	d := *s
	if d.Trips == 0 {
		d.Trips = core.MCF.DefaultSize
	}
	if d.Seed == 0 {
		d.Seed = core.DefaultSeed
	}
	if d.Layout == "" {
		d.Layout = core.MCF.Layouts[0]
	}
	if d.MaxRecs == 0 {
		d.MaxRecs = 20
	}
	return d
}

// AdviseStatus is the API snapshot of one advise job.
type AdviseStatus struct {
	ID             string              `json:"id"`
	State          JobState            `json:"state"`
	Spec           AdviseSpec          `json:"spec"`
	Error          string              `json:"error,omitempty"`
	BaselineExps   []string            `json:"baselineExperiments,omitempty"`
	ValidationExps []string            `json:"validationExperiments,omitempty"`
	Advice         *advisor.Advice     `json:"advice,omitempty"`
	Results        []advisor.RecResult `json:"results,omitempty"`
	Submitted      time.Time           `json:"submitted"`
	Finished       time.Time           `json:"finished,omitzero"`
}

// AdviseJob is one running or completed advisor loop.
type AdviseJob struct {
	ID   string
	Spec AdviseSpec

	mu        sync.Mutex
	state     JobState
	err       string
	baseIDs   []string
	validIDs  []string
	advice    *advisor.Advice
	results   []advisor.RecResult
	report    []byte
	submitted time.Time
	finished  time.Time
	done      chan struct{}
}

// Status returns a consistent snapshot.
func (j *AdviseJob) Status() AdviseStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return AdviseStatus{
		ID: j.ID, State: j.state, Spec: j.Spec, Error: j.err,
		BaselineExps: j.baseIDs, ValidationExps: j.validIDs,
		Advice: j.advice, Results: j.results,
		Submitted: j.submitted, Finished: j.finished,
	}
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *AdviseJob) Done() <-chan struct{} { return j.done }

// Report returns the rendered report, or false while the job runs.
func (j *AdviseJob) Report() ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobDone {
		return nil, false
	}
	return j.report, true
}

// Adviser owns the advise-job table and drives each loop.
type Adviser struct {
	sched *Scheduler
	store *Store

	mu    sync.Mutex
	jobs  map[string]*AdviseJob
	order []string
	seq   int

	running atomic.Int64
	doneN   atomic.Int64
	failedN atomic.Int64
}

// NewAdviser wires an adviser over the service's scheduler and store.
func NewAdviser(sched *Scheduler, store *Store) *Adviser {
	return &Adviser{sched: sched, store: store, jobs: make(map[string]*AdviseJob)}
}

// Submit validates and starts an advise job, returning it immediately.
func (ad *Adviser) Submit(spec AdviseSpec) (*AdviseJob, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	ad.mu.Lock()
	ad.seq++
	j := &AdviseJob{
		ID: fmt.Sprintf("advise-%d", ad.seq), Spec: spec,
		state: JobRunning, submitted: time.Now(), done: make(chan struct{}),
	}
	ad.jobs[j.ID] = j
	ad.order = append(ad.order, j.ID)
	ad.mu.Unlock()
	ad.running.Add(1)
	go ad.run(j)
	return j, nil
}

// Get looks up an advise job by ID.
func (ad *Adviser) Get(id string) (*AdviseJob, bool) {
	ad.mu.Lock()
	defer ad.mu.Unlock()
	j, ok := ad.jobs[id]
	return j, ok
}

// Jobs returns every advise job in submission order.
func (ad *Adviser) Jobs() []*AdviseJob {
	ad.mu.Lock()
	defer ad.mu.Unlock()
	out := make([]*AdviseJob, 0, len(ad.order))
	for _, id := range ad.order {
		out = append(out, ad.jobs[id])
	}
	return out
}

// Counters returns the adviser's running/done/failed totals.
func (ad *Adviser) Counters() (running, done, failed int64) {
	return ad.running.Load(), ad.doneN.Load(), ad.failedN.Load()
}

func (ad *Adviser) run(j *AdviseJob) {
	err := ad.runLoop(j)
	j.mu.Lock()
	if err != nil {
		j.state = JobFailed
		j.err = err.Error()
	} else {
		j.state = JobDone
	}
	j.finished = time.Now()
	close(j.done)
	j.mu.Unlock()
	ad.running.Add(-1)
	if err != nil {
		ad.failedN.Add(1)
	} else {
		ad.doneN.Add(1)
	}
}

func (ad *Adviser) runLoop(j *AdviseJob) error {
	spec := j.Spec.withDefaults()
	ctx := context.Background()
	if spec.TimeoutSec > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(spec.TimeoutSec*float64(time.Second)))
		defer cancel()
	}

	// Baseline: the paper's two-experiment collection, as ordinary
	// scheduler jobs.
	w := core.MCF
	iv := w.Intervals(spec.Trips).WithDefaults()
	base := JobSpec{
		Program: w.Name, Layout: spec.Layout, Trips: spec.Trips, Seed: spec.Seed,
		MachineConfig: spec.MachineConfig, TimeoutSec: spec.TimeoutSec,
	}
	specA, specB := base, base
	specA.Clock = true
	specA.ClockIntervalCycles = iv.ClockTick
	specA.Counters, specB.Counters = iv.Specs()

	var jobs []*Job
	for _, s := range []JobSpec{specA, specB} {
		job, err := ad.sched.Submit(s)
		if err != nil {
			return fmt.Errorf("profd: submitting baseline: %w", err)
		}
		jobs = append(jobs, job)
	}
	var ids []string
	for _, job := range jobs {
		st, err := job.Wait(ctx)
		if err != nil {
			return fmt.Errorf("profd: baseline run: %w", err)
		}
		if st.State != JobDone {
			return fmt.Errorf("profd: baseline job %s %s: %s", st.ID, st.State, st.Error)
		}
		ids = append(ids, st.Experiment)
	}
	j.mu.Lock()
	j.baseIDs = ids
	j.mu.Unlock()

	a, err := ad.store.Analyzer(ids)
	if err != nil {
		return err
	}
	adv, err := advisor.Analyze(a, advisor.Options{
		Window: spec.Window, MinShare: spec.MinShare, MaxRecs: spec.MaxRecs,
	})
	if err != nil {
		return err
	}
	j.mu.Lock()
	j.advice = adv
	j.mu.Unlock()

	cfg, err := core.MachineConfig(spec.MachineConfig)
	if err != nil {
		return err
	}
	target, err := core.StudyParams{
		Workload: w, Layout: spec.Layout, Size: spec.Trips, Seed: spec.Seed,
		HWCProf: true, Machine: &cfg,
	}.Target()
	if err != nil {
		return err
	}
	valid, err := advisor.Validate(ctx, target, adv, a)
	if err != nil {
		return err
	}

	// Persist the validation runs so their profiles stay queryable; the
	// synthetic spec records what was actually collected.
	var validIDs []string
	store := func(r *advisor.RecResult, label string) {
		if r == nil || r.Exp == nil {
			return
		}
		vs := specA
		vs.Name = label
		if rec, perr := ad.store.Put(&vs, r.Exp); perr == nil {
			validIDs = append(validIDs, rec.ID)
		}
	}
	for i := range valid.Results {
		r := &valid.Results[i]
		store(r, r.Rec.Kind+":"+r.Rec.Struct)
	}
	store(valid.Combined, "combined")

	var buf bytes.Buffer
	if err := a.Render(&buf, "advice", analyzer.RenderOpts{TopN: spec.MaxRecs}); err != nil {
		return err
	}
	fmt.Fprintln(&buf)
	if err := valid.Render(&buf, a, spec.MaxRecs); err != nil {
		return err
	}

	j.mu.Lock()
	j.validIDs = validIDs
	j.results = valid.Results
	j.report = buf.Bytes()
	j.mu.Unlock()
	return nil
}
