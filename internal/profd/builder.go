package profd

// builder.go resolves job specs into runnable (program, input, machine)
// triples, memoizing compiles and generated workload instances so a
// sweep of N jobs over one program compiles once and generates each
// distinct instance once, no matter how many workers race on it.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"dsprof/internal/asm"
	"dsprof/internal/cc"
	"dsprof/internal/core"
	"dsprof/internal/machine"
)

// progEntry is one memoized compile (singleflight: the first goroutine
// to want the key compiles, the rest wait on the Once).
type progEntry struct {
	once sync.Once
	prog *asm.Program
	err  error
}

type inputEntry struct {
	once  sync.Once
	input []int64
}

type builder struct {
	mu     sync.Mutex
	progs  map[string]*progEntry
	inputs map[string]*inputEntry
}

func newBuilder() *builder {
	return &builder{
		progs:  make(map[string]*progEntry),
		inputs: make(map[string]*inputEntry),
	}
}

func (b *builder) progEntryFor(key string) *progEntry {
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.progs[key]
	if e == nil {
		e = &progEntry{}
		b.progs[key] = e
	}
	return e
}

func (b *builder) inputEntryFor(key string) *inputEntry {
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.inputs[key]
	if e == nil {
		e = &inputEntry{}
		b.inputs[key] = e
	}
	return e
}

// Resolve turns a validated spec into the program, input vector and
// machine configuration for one collect run. Compiled programs are
// shared across jobs: they are read-only during simulation.
func (b *builder) Resolve(spec *JobSpec) (*asm.Program, []int64, *machine.Config, error) {
	w, _ := core.LookupWorkload(spec.Program) // nil unless a bundled workload
	prog, err := b.program(spec, w)
	if err != nil {
		return nil, nil, nil, err
	}
	input := spec.Input
	if len(input) == 0 && w != nil {
		input = b.input(spec, w)
	}
	cfg, err := core.MachineConfig(spec.MachineConfig)
	if err != nil {
		return nil, nil, nil, err
	}
	return prog, input, &cfg, nil
}

func (b *builder) program(spec *JobSpec, w *core.Workload) (*asm.Program, error) {
	switch {
	case w != nil:
		l, err := w.Layout(spec.Layout)
		if err != nil {
			return nil, err
		}
		// Keyed by the resolved layout, so an empty layout and the
		// default's name share one compile. ConfigHash still hashes the
		// raw Layout on purpose: store keys are pinned.
		key := fmt.Sprintf("%s/%d/%d", w.Name, l, spec.PageSizeHeap)
		e := b.progEntryFor(key)
		e.once.Do(func() {
			e.prog, e.err = w.Program(l, cc.Options{
				HWCProf:      true,
				PageSizeHeap: spec.PageSizeHeap,
			})
		})
		return e.prog, e.err
	case spec.Source != "":
		name := spec.Name
		if name == "" {
			name = "job"
		}
		sum := sha256.Sum256([]byte(spec.Source))
		key := fmt.Sprintf("src/%s/%d/%s", name, spec.PageSizeHeap, hex.EncodeToString(sum[:8]))
		e := b.progEntryFor(key)
		e.once.Do(func() {
			e.prog, e.err = core.Compile(name, []cc.Source{{Name: name + ".mc", Text: spec.Source}},
				&cc.Options{Name: name, HWCProf: true, PageSizeHeap: spec.PageSizeHeap})
		})
		return e.prog, e.err
	default:
		// A path to a compiled object file; loaded fresh each time so
		// on-disk changes between jobs are picked up.
		return asm.LoadFile(spec.Program)
	}
}

// input generates (once) the workload instance the spec selects; a zero
// size or seed selects the default.
func (b *builder) input(spec *JobSpec, w *core.Workload) []int64 {
	size, seed := spec.Trips, spec.Seed
	if size == 0 {
		size = w.DefaultSize
	}
	if seed == 0 {
		seed = core.DefaultSeed
	}
	key := fmt.Sprintf("%s/%d/%d", w.Name, size, seed)
	e := b.inputEntryFor(key)
	e.once.Do(func() {
		e.input = w.Generate(size, seed)
	})
	return e.input
}
