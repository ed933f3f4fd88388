// Package profd is the long-running profiling service: a job scheduler
// that fans profiling runs out to a bounded pool of independent VM
// workers, an experiment store that persists and indexes completed
// experiment directories and memoizes reduced analyzers, and an HTTP
// API serving job control, the paper's reports, and service metrics.
//
// The paper's workflow is inherently multi-run — four counters need two
// collect invocations, merged at analysis time — and the deterministic
// machine/collect stack is embarrassingly parallel across runs, so the
// scheduler runs experiment A (clock,+ecstall,+ecrm), experiment B
// (+ecref,+dtlbm), and whole parameter sweeps concurrently, with
// per-job timeout, cancellation and retry-on-transient-failure.
package profd

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"dsprof/internal/collect"
	"dsprof/internal/mcf"
	"dsprof/internal/nbody"
)

// Program selectors understood by JobSpec.Program.
const (
	// ProgramMCF is the built-in MCF workload (the paper's case study);
	// Layout/Trips/Seed select the variant and instance.
	ProgramMCF = "mcf"
	// ProgramNBody is the built-in n-body force-layout workload. It
	// reuses the same spec fields: Layout selects the link encoding
	// ("baseline" or "compressed"), Trips the instance size in papers,
	// Seed the graph seed.
	ProgramNBody = "nbody"
)

// JobSpec describes one profiling job: a program, its input, and the
// counter specification for a single collect run.
type JobSpec struct {
	// Program selects the target: "mcf" for the built-in MCF workload,
	// or a path to a compiled .obj file readable by the service. Leave
	// empty to compile Source instead.
	Program string `json:"program,omitempty"`
	// Source is inline MC source text, compiled with the paper's
	// memory-profiling flags. Name names the resulting program.
	Source string `json:"source,omitempty"`
	Name   string `json:"name,omitempty"`

	// Built-in workload parameters (Program == "mcf" or "nbody").
	// For mcf, Layout is "paper" (default) or "optimized" and Trips the
	// instance size in timetabled trips (default 1200); for nbody,
	// Layout is "baseline" (default) or "compressed" and Trips the
	// instance size in papers (default 2000).
	Layout string `json:"layout,omitempty"`
	Trips  int    `json:"trips,omitempty"`
	Seed   uint64 `json:"seed,omitempty"` // instance seed (default 20030717)

	// PageSizeHeap compiles with -xpagesize_heap (0 = default 8 KB).
	PageSizeHeap uint64 `json:"pageSizeHeap,omitempty"`

	// Input is the program's input vector, for non-MCF programs.
	Input []int64 `json:"input,omitempty"`

	// Clock enables clock profiling (-p on); ClockIntervalCycles
	// overrides the tick (0 = collector default).
	Clock               bool   `json:"clock,omitempty"`
	ClockIntervalCycles uint64 `json:"clockIntervalCycles,omitempty"`
	// Counters is the collect -h specification, e.g. "+ecstall,lo,+ecrm,on".
	Counters string `json:"counters,omitempty"`

	// MachineConfig selects the simulated system: "default", "scaled",
	// or "study" (the paper-scale study machine). Default: "study".
	MachineConfig string `json:"machine,omitempty"`

	// Provenance also records allocation-site provenance (heap block
	// birth/death with site PCs) into the experiment, enabling the
	// object-centric reports (site-heat, obj-timeline, dead-objects,
	// pool-advice). Counter event shards are unaffected either way.
	Provenance bool `json:"provenance,omitempty"`

	// TimeoutSec bounds the run's wall-clock time (0 = scheduler default).
	TimeoutSec float64 `json:"timeoutSec,omitempty"`
	// MaxRetries re-runs the job after a transient failure (default 0).
	MaxRetries int `json:"maxRetries,omitempty"`
}

// Validate checks the spec is well-formed before it is queued, so
// submission errors surface synchronously at the API boundary.
func (s *JobSpec) Validate() error {
	selectors := 0
	if s.Program != "" {
		selectors++
	}
	if s.Source != "" {
		selectors++
	}
	if selectors == 0 {
		return errors.New("profd: job needs a program: set program or source")
	}
	if selectors > 1 {
		return errors.New("profd: program and source are mutually exclusive")
	}
	if s.Program == ProgramMCF || s.Program == ProgramNBody {
		if s.Program == ProgramMCF {
			switch s.Layout {
			case "", "paper", "optimized":
			default:
				return fmt.Errorf("profd: unknown mcf layout %q (want paper or optimized)", s.Layout)
			}
		} else {
			switch s.Layout {
			case "", "baseline", "compressed":
			default:
				return fmt.Errorf("profd: unknown nbody layout %q (want baseline or compressed)", s.Layout)
			}
		}
		if s.Trips < 0 {
			return fmt.Errorf("profd: negative trips %d", s.Trips)
		}
	}
	switch s.MachineConfig {
	case "", "default", "scaled", "study":
	default:
		return fmt.Errorf("profd: unknown machine config %q (want default, scaled or study)", s.MachineConfig)
	}
	if !s.Clock && s.Counters == "" {
		return errors.New("profd: job profiles nothing: enable clock or arm counters")
	}
	if _, err := collect.ParseCounterSpec(s.Counters); err != nil {
		return err
	}
	if s.TimeoutSec < 0 {
		return fmt.Errorf("profd: negative timeout %g", s.TimeoutSec)
	}
	if s.MaxRetries < 0 {
		return fmt.Errorf("profd: negative maxRetries %d", s.MaxRetries)
	}
	return nil
}

// mcfLayout maps the spec's layout name to the workload parameter.
func (s *JobSpec) mcfLayout() mcf.Layout {
	if s.Layout == "optimized" {
		return mcf.LayoutOptimized
	}
	return mcf.LayoutPaper
}

// nbodyVariant maps the spec's layout name to the link encoding.
func (s *JobSpec) nbodyVariant() nbody.Variant {
	if s.Layout == "compressed" {
		return nbody.VariantCompressed
	}
	return nbody.VariantBaseline
}

// ConfigHash is the experiment-store index key: a digest of every field
// that determines the profiled run's outcome (program identity, input,
// counter arming, machine selection). Run controls (timeout, retries)
// are excluded. Jobs with equal hashes produce byte-identical profiles
// on the deterministic simulator. Store directory names embed the hash,
// so its value must stay stable (TestConfigHash pins it).
func (s *JobSpec) ConfigHash() string {
	canon := struct {
		Program, Source, Name, Layout string
		Trips                         int
		Seed, PageSizeHeap, ClockTick uint64
		Input                         []int64
		Clock                         bool
		Counters, Machine             string
		Provenance                    bool
	}{
		Program: s.Program, Source: s.Source, Name: s.Name, Layout: s.Layout,
		Trips: s.Trips, Seed: s.Seed, PageSizeHeap: s.PageSizeHeap,
		ClockTick: s.ClockIntervalCycles, Input: s.Input, Clock: s.Clock,
		Counters: s.Counters, Machine: s.MachineConfig,
		Provenance: s.Provenance,
	}
	b, _ := json.Marshal(&canon)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// JobState is a job's lifecycle phase.
type JobState string

// Job lifecycle states.
const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// transientError marks an error as transient, i.e. worth retrying.
type transientError struct{ err error }

func (t *transientError) Error() string { return t.err.Error() }
func (t *transientError) Unwrap() error { return t.err }

// MarkTransient wraps err so the scheduler's retry policy re-runs the
// job (up to its MaxRetries). The deterministic simulator itself never
// fails transiently; the marker exists for custom runners and for
// infrastructure errors like filesystem contention.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err}
}

// IsTransient reports whether err was wrapped by MarkTransient.
func IsTransient(err error) bool {
	var t *transientError
	return errors.As(err, &t)
}
