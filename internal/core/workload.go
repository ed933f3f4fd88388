package core

import (
	"errors"
	"fmt"
	"strings"

	"dsprof/internal/asm"
	"dsprof/internal/cc"
	"dsprof/internal/machine"
	"dsprof/internal/mcf"
	"dsprof/internal/nbody"
)

// workload.go is the seam every tool plugs a bundled workload through:
// a Workload names the program, its layouts and its instance generator,
// and the compile, input, output-check and interval choices that the
// study harness, the advisor loop, profd and the CLIs share. A new
// kernel is one leaf package plus one entry in workloads.

// Workload describes one bundled workload.
type Workload struct {
	// Name selects the workload: profd's program name and the CLIs'
	// -workload value.
	Name string
	// Layouts names the program's struct layouts; Layouts[i] is the
	// leaf package's layout i, and Layouts[0] is the default.
	Layouts []string
	// DefaultSize is the instance size that a size of 0 selects.
	DefaultSize int
	// Sources returns the program's MC source for a layout.
	Sources func(layout int) []cc.Source
	// Generate builds a seeded instance and encodes it as the program's
	// input vector.
	Generate func(size int, seed uint64) []int64
	// Check rejects an output vector that is malformed or reports a
	// failed run.
	Check func(out []int64) error
	// Intervals picks baseline overflow intervals matched to the run
	// length of an instance of the given size.
	Intervals func(size int) PaperIntervals
	// Reference solves an instance with the workload's Go reference
	// and describes its answer. The text is returned even when the
	// error reports a disagreement.
	Reference func(size int, seed uint64) (string, error)
}

// DefaultSeed is the instance seed every tool uses by default.
const DefaultSeed = 20030717

// MCF is the paper's §3 case study: the SPEC CPU2000 181.mcf network
// simplex on a single-depot vehicle-scheduling instance, sized in
// timetabled trips.
var MCF = &Workload{
	Name:        "mcf",
	Layouts:     []string{mcf.LayoutPaper.String(), mcf.LayoutOptimized.String()},
	DefaultSize: 1200,
	Sources: func(l int) []cc.Source {
		return []cc.Source{{Name: "mcf.mc", Text: mcf.Source(mcf.Layout(l))}}
	},
	Generate: func(trips int, seed uint64) []int64 {
		return mcf.Generate(mcf.DefaultGenParams(trips, seed)).Encode()
	},
	Check: func(out []int64) error {
		_, err := mcfOutput(out)
		return err
	},
	// Paper-scale instances use the paper's intervals; smoke-scale
	// instances use proportionally smaller primes, so even a trips≈100
	// run yields enough events to rank members.
	Intervals: func(trips int) PaperIntervals {
		if trips >= 600 {
			return PaperIntervals{}
		}
		return PaperIntervals{ECStall: 20011, ECRdMiss: 1009, ECRef: 4001, DTLBMiss: 503}
	},
	Reference: func(trips int, seed uint64) (string, error) {
		ins := mcf.Generate(mcf.DefaultGenParams(trips, seed))
		ns, stats, err := mcf.SolveNetSimplex(ins)
		if err != nil {
			return "", fmt.Errorf("netsimplex: %w", err)
		}
		ssp, err := mcf.SolveSSP(ins)
		if err != nil {
			return "", fmt.Errorf("ssp: %w", err)
		}
		text := fmt.Sprintf("trips=%d nodes=%d arcs=%d\nnetsimplex optimum=%d (pivots=%d)\nssp        optimum=%d\n",
			trips, ins.N, len(ins.Arcs), ns, stats.Pivots, ssp)
		if ns != ssp {
			return text, errors.New("SOLVERS DISAGREE")
		}
		return text, nil
	},
}

// NBody is the paperscape-style n-body force-layout kernel over a
// seeded citation graph, sized in papers. Its layouts are the link
// encodings.
var NBody = &Workload{
	Name:        "nbody",
	Layouts:     []string{nbody.VariantBaseline.String(), nbody.VariantCompressed.String()},
	DefaultSize: 2000,
	Sources: func(v int) []cc.Source {
		return nbody.Source(nbody.Variant(v))
	},
	Generate: func(papers int, seed uint64) []int64 {
		return nbody.Generate(nbody.DefaultGenParams(papers, seed)).Encode()
	},
	Check: func(out []int64) error {
		o, err := nbody.ParseOutput(out)
		if err == nil && o.Status != 0 {
			err = fmt.Errorf("nbody run failed with status %d", o.Status)
		}
		return err
	},
	// The kernel is an order of magnitude shorter than a scaled MCF run,
	// so sub-paper instances use proportionally smaller primes.
	Intervals: func(papers int) PaperIntervals {
		if papers >= 10000 {
			return PaperIntervals{}
		}
		return PaperIntervals{ECStall: 2003, ECRdMiss: 251, ECRef: 1009, DTLBMiss: 127, ClockTick: 90001}
	},
	Reference: func(papers int, seed uint64) (string, error) {
		ins := nbody.Generate(nbody.DefaultGenParams(papers, seed))
		o := nbody.Simulate(ins)
		return fmt.Sprintf("papers=%d links=%d coarse=%d fine=%d\noutput=%v\n",
			ins.N, len(ins.Links), ins.CoarseIters, ins.FineIters, o.Longs()), nil
	},
}

// workloads is the table LookupWorkload searches.
var workloads = []*Workload{MCF, NBody}

// LookupWorkload returns the bundled workload with the given name.
func LookupWorkload(name string) (*Workload, error) {
	var names []string
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return nil, fmt.Errorf("unknown workload %q (want %s)", name, strings.Join(names, " or "))
}

// Layout returns the index of the named layout; "" selects Layouts[0].
func (w *Workload) Layout(name string) (int, error) {
	if name == "" {
		return 0, nil
	}
	for i, l := range w.Layouts {
		if l == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("unknown %s layout %q (want %s)", w.Name, name, strings.Join(w.Layouts, " or "))
}

// Program compiles the workload with a layout. An unnamed program is
// called "<name>-<layout>".
func (w *Workload) Program(layout int, opts cc.Options) (*asm.Program, error) {
	if opts.Name == "" {
		opts.Name = w.progName(layout)
	}
	return cc.Compile(w.Sources(layout), opts)
}

func (w *Workload) progName(layout int) string {
	return w.Name + "-" + w.Layouts[layout]
}

// MachineConfig resolves a machine selector: "study" (or "") is
// StudyMachine, "scaled" machine.ScaledConfig and "default"
// machine.DefaultConfig.
func MachineConfig(name string) (machine.Config, error) {
	switch name {
	case "", "study":
		return StudyMachine(), nil
	case "scaled":
		return machine.ScaledConfig(), nil
	case "default":
		return machine.DefaultConfig(), nil
	}
	return machine.Config{}, fmt.Errorf("unknown machine config %q (want default, scaled or study)", name)
}

// mcfOutput decodes an MCF output vector and rejects a failed run.
func mcfOutput(longs []int64) (*mcf.Output, error) {
	out, err := mcf.ParseOutput(longs)
	if err == nil && out.Status != 0 {
		return nil, fmt.Errorf("mcf run failed with status %d", out.Status)
	}
	return out, err
}
