package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"dsprof/internal/analyzer"
	"dsprof/internal/asm"
	"dsprof/internal/cc"
	"dsprof/internal/collect"
	"dsprof/internal/experiment"
	"dsprof/internal/machine"
	"dsprof/internal/mcf"
	"dsprof/internal/nbody"
)

// goldenSet is one collect invocation of a two-way engine golden.
type goldenSet struct {
	name  string
	clock uint64 // clock-profiling interval in cycles; 0 = off
	spec  string
}

// TestFastPathGolden is the differential golden test for the execution
// engine: a full MCF collect — both of the paper's counter sets, clock
// profiling on — run on the instruction-granular reference stepper
// (collect.Options.SingleStep) and on the default engine (translated
// superblocks that count armed events exactly and side-exit at overflows
// and cycle horizons, with Step for everything else) must produce
// byte-identical experiment directories and byte-identical rendered
// reports. Any drift in event streams, skid draws, cycle counts, or
// attribution shows up as a file diff here.
func TestFastPathGolden(t *testing.T) {
	prog, err := mcf.Program(mcf.LayoutPaper, cc.Options{HWCProf: true})
	if err != nil {
		t.Fatal(err)
	}
	input := mcf.Generate(mcf.DefaultGenParams(300, 20030717)).Encode()
	cfg := StudyMachine()
	cfg.TLB.Entries = 8 // scaled-down TLB so DTLB events appear at this scale

	counterSets := []goldenSet{
		{"A", 900007, "+ecstall,20011,+ecrm,997"},
		{"B", 0, "+ecref,2003,+dtlbm,499"},
		// I$ misses alongside D$ read misses in one run: translated code
		// counts the first on its fetch probes and the second on its
		// load miss path, and side-exits after whichever overflows.
		{"C", 900007, "+icm,61,+dcrm,757"},
	}
	reports := []string{
		"total", "functions", "pcs", "lines", "objects", "addrspace",
		"effect", "feedback",
		"source=refresh_potential", "disasm=refresh_potential",
		"members=node", "callers=refresh_potential",
		"obj-timeline=read_min",
	}
	runTwoWayGolden(t, prog, input, cfg, counterSets, reports)
}

// TestFastPathGoldenNBody is the same two-way golden over the second
// workload family: the n-body force-layout kernel, whose Q16.16 float
// lowering and anonymous-union members must simulate identically on
// the reference stepper and the default engine.
func TestFastPathGoldenNBody(t *testing.T) {
	prog, err := nbody.Program(nbody.VariantBaseline, cc.Options{HWCProf: true})
	if err != nil {
		t.Fatal(err)
	}
	input := nbody.Generate(nbody.DefaultGenParams(400, 20030717)).Encode()
	cfg := StudyMachine()
	cfg.TLB.Entries = 8            // scaled-down TLB so DTLB events appear
	cfg.ECache.SizeBytes = 1 << 15 // 32 KB E$ so the small graph still misses it

	counterSets := []goldenSet{
		{"A", 900007, "+ecstall,2003,+ecrm,251"},
		{"B", 0, "+ecref,1009,+dtlbm,127"},
	}
	reports := []string{
		"total", "functions", "pcs", "lines", "objects", "addrspace",
		"effect", "feedback",
		"source=force_pass", "disasm=force_pass",
		"members=lnode", "callers=force_pass",
		"obj-timeline=main",
	}
	runTwoWayGolden(t, prog, input, cfg, counterSets, reports)

	// The advisor loop's dense intervals, golden on their own (the
	// analyzer merges only experiments sharing one clock interval). The
	// E$-stall interval of 211 is little more than one E$ miss's
	// 180-cycle stall, so translated blocks side-exit on overflow after
	// overflow, and the 9001-cycle clock puts a cycle horizon inside
	// many of them.
	dense := []goldenSet{{"D", 9001, "+ecstall,211,+ecrm,31"}}
	runTwoWayGolden(t, prog, input, cfg, dense, reports)
}

// runTwoWayGolden collects every counter set on the reference stepper
// and on the default engine, then requires byte-identical experiment
// directories and byte-identical renderings of every registered report.
func runTwoWayGolden(t *testing.T, prog *asm.Program, input []int64, cfg machine.Config, counterSets []goldenSet, reports []string) {
	t.Helper()
	collectAll := func(singleStep bool) ([]*experiment.Experiment, []string) {
		var exps []*experiment.Experiment
		var dirs []string
		for _, cs := range counterSets {
			specs, err := collect.ParseCounterSpec(cs.spec)
			if err != nil {
				t.Fatal(err)
			}
			res, err := collect.Run(prog, collect.Options{
				ClockProfile:        cs.clock > 0,
				ClockIntervalCycles: cs.clock,
				Counters:            specs,
				Machine:             &cfg,
				Input:               input,
				SingleStep:          singleStep,
				Provenance:          true,
			})
			if err != nil {
				t.Fatalf("collect %s (singleStep=%v): %v", cs.name, singleStep, err)
			}
			// Pin the only intentionally non-deterministic field so the
			// directories can be compared byte for byte.
			res.Exp.Meta.When = time.Unix(1058400000, 0).UTC()
			dir := filepath.Join(t.TempDir(), fmt.Sprintf("exp%s", cs.name))
			if err := res.Exp.Save(dir); err != nil {
				t.Fatal(err)
			}
			exps = append(exps, res.Exp)
			dirs = append(dirs, dir)
		}
		return exps, dirs
	}

	refExps, refDirs := collectAll(true)
	engExps, engDirs := collectAll(false)

	// 1. The saved experiment directories must be byte-identical.
	for i := range refDirs {
		compareDirs(t, counterSets[i].name, refDirs[i], engDirs[i])
	}

	// 2. Every registered report rendered from the merged pair must be
	// byte-identical.
	refA, err := Analyze(refExps...)
	if err != nil {
		t.Fatal(err)
	}
	engA, err := Analyze(engExps...)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range analyzer.ReportNames() {
		switch name {
		case "total", "functions", "source", "disasm", "pcs", "lines",
			"objects", "members", "callers", "addrspace", "feedback", "effect",
			"obj-timeline":
			// covered (with arguments) above
		default:
			reports = append(reports, name) // registered extensions (advice)
		}
	}
	for _, rep := range reports {
		var refBuf, engBuf bytes.Buffer
		if err := refA.Render(&refBuf, rep, analyzer.RenderOpts{}); err != nil {
			t.Fatalf("render %q (reference): %v", rep, err)
		}
		if err := engA.Render(&engBuf, rep, analyzer.RenderOpts{}); err != nil {
			t.Fatalf("render %q (engine): %v", rep, err)
		}
		if !bytes.Equal(refBuf.Bytes(), engBuf.Bytes()) {
			t.Errorf("report %q differs between reference and engine", rep)
		}
	}

	// Sanity: the run must actually have produced events on both counters
	// of both sets, or the test proves nothing.
	for i, exp := range refExps {
		for pic := 0; pic < 2; pic++ {
			if exp.EventCount(pic) == 0 {
				t.Errorf("experiment %s PIC%d produced no events", counterSets[i].name, pic)
			}
		}
	}
	if !refExps[0].Meta.ClockProfiling || len(refExps[0].Clock) == 0 {
		t.Error("experiment A produced no clock ticks")
	}
}

// compareDirs byte-compares every file in two directory trees.
func compareDirs(t *testing.T, label, refDir, engDir string) {
	t.Helper()
	refFiles := listFiles(t, refDir)
	engFiles := listFiles(t, engDir)
	if len(refFiles) == 0 {
		t.Fatalf("%s: reference experiment directory is empty", label)
	}
	if fmt.Sprint(refFiles) != fmt.Sprint(engFiles) {
		t.Fatalf("%s: file sets differ: %v vs %v", label, refFiles, engFiles)
	}
	for _, rel := range refFiles {
		if rel == "program.obj" {
			// The saved program is the collect *input*, identical by
			// construction, but gob encodes its debug-table maps in
			// random iteration order, so its bytes differ between any two
			// saves. Compare it semantically instead.
			refP, err := asm.LoadFile(filepath.Join(refDir, rel))
			if err != nil {
				t.Fatal(err)
			}
			engP, err := asm.LoadFile(filepath.Join(engDir, rel))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(refP, engP) {
				t.Errorf("%s: %s decodes to different programs", label, rel)
			}
			continue
		}
		refB, err := os.ReadFile(filepath.Join(refDir, rel))
		if err != nil {
			t.Fatal(err)
		}
		engB, err := os.ReadFile(filepath.Join(engDir, rel))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(refB, engB) {
			t.Errorf("%s: %s differs between reference and engine (%d vs %d bytes)",
				label, rel, len(refB), len(engB))
		}
	}
}

func listFiles(t *testing.T, dir string) []string {
	t.Helper()
	var files []string
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() {
			rel, _ := filepath.Rel(dir, path)
			files = append(files, rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}
