// Golden byte-identity for the sharded parallel reduction: every
// registered report rendered from a streaming (Open) experiment reduced
// on 4 workers must be byte-identical to the serial reference (eager
// Load, 1 worker) on the paper's MCF experiment pair. Parallelism and
// streaming must be invisible in the output.
package dsprof_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"

	_ "dsprof/internal/advisor" // registers the "advice" and "pool-advice" reports
	"dsprof/internal/analyzer"
	"dsprof/internal/cc"
	"dsprof/internal/collect"
	"dsprof/internal/core"
	"dsprof/internal/experiment"
	"dsprof/internal/hwc"
	"dsprof/internal/mcf"
)

// goldenPair collects (once) the paper's A+B experiment pair at reduced
// scale and saves both in v2 format.
var (
	goldenOnce sync.Once
	goldenDirA string
	goldenDirB string
	// goldenDirA2 is a second run of config A on a different input — the
	// before/after pair for the comparison report.
	goldenDirA2 string
	goldenErr   error
)

func goldenPair(t *testing.T) (dirA, dirB string) {
	t.Helper()
	goldenOnce.Do(func() {
		prog, err := mcf.Program(mcf.LayoutPaper, cc.Options{HWCProf: true})
		if err != nil {
			goldenErr = err
			return
		}
		input := mcf.Generate(mcf.DefaultGenParams(160, 20030717)).Encode()
		cfg := core.StudyMachine()
		// Provenance on: the report loop below covers the object-centric
		// reports (site-heat, obj-timeline, dead-objects, pool-advice),
		// which need allocation records. Provenance never perturbs the
		// counter streams (provenance_golden_test.go), so the pre-existing
		// reports see the same data either way.
		ctx := context.Background()
		resA, err := core.CollectRun(ctx, prog, "+ecstall,10007,+ecrm,503", collect.Options{
			ClockProfile: true, Machine: &cfg, Input: input, Provenance: true,
		})
		if err != nil {
			goldenErr = err
			return
		}
		resB, err := core.CollectRun(ctx, prog, "+ecref,997,+dtlbm,251", collect.Options{
			Machine: &cfg, Input: input, Provenance: true,
		})
		if err != nil {
			goldenErr = err
			return
		}
		input2 := mcf.Generate(mcf.DefaultGenParams(160, 20030718)).Encode()
		resA2, err := core.CollectRun(ctx, prog, "+ecstall,10007,+ecrm,503", collect.Options{
			ClockProfile: true, Machine: &cfg, Input: input2, Provenance: true,
		})
		if err != nil {
			goldenErr = err
			return
		}
		// Not t.TempDir: the pair is shared (via goldenOnce) with tests
		// that outlive whichever test collected it.
		root, err := os.MkdirTemp("", "dsprof-golden")
		if err != nil {
			goldenErr = err
			return
		}
		goldenDirA = filepath.Join(root, "a.er")
		goldenDirB = filepath.Join(root, "b.er")
		goldenDirA2 = filepath.Join(root, "a2.er")
		if err := resA.Exp.Save(goldenDirA); err != nil {
			goldenErr = err
			return
		}
		if err := resB.Exp.Save(goldenDirB); err != nil {
			goldenErr = err
			return
		}
		if err := resA2.Exp.Save(goldenDirA2); err != nil {
			goldenErr = err
		}
	})
	if goldenErr != nil {
		t.Fatal(goldenErr)
	}
	return goldenDirA, goldenDirB
}

func loadAll(t *testing.T, dirs ...string) []*experiment.Experiment {
	t.Helper()
	exps := make([]*experiment.Experiment, 0, len(dirs))
	for _, d := range dirs {
		e, err := experiment.Load(d)
		if err != nil {
			t.Fatal(err)
		}
		exps = append(exps, e)
	}
	return exps
}

func openAll(t *testing.T, dirs ...string) []*experiment.Experiment {
	t.Helper()
	exps := make([]*experiment.Experiment, 0, len(dirs))
	for _, d := range dirs {
		e, err := experiment.Open(d)
		if err != nil {
			t.Fatal(err)
		}
		exps = append(exps, e)
	}
	return exps
}

// reportArgs supplies the argument for the arg-taking reports, chosen to
// hit the paper's hot function and struct.
var reportArgs = map[string]string{
	"source":       "refresh_potential",
	"disasm":       "refresh_potential",
	"members":      "node",
	"callers":      "refresh_potential",
	"obj-timeline": "read_min",
}

func TestShardedReductionByteIdentical(t *testing.T) {
	dirA, dirB := goldenPair(t)
	serial, err := analyzer.NewWithConfig(analyzer.Config{Workers: 1}, loadAll(t, dirA, dirB)...)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := analyzer.NewWithConfig(analyzer.Config{Workers: 4}, openAll(t, dirA, dirB)...)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range analyzer.ReportNames() {
		token := name
		if arg, ok := reportArgs[name]; ok {
			token += "=" + arg
		}
		var want, got bytes.Buffer
		if err := serial.Render(&want, token, analyzer.RenderOpts{TopN: 20}); err != nil {
			t.Fatalf("serial %s: %v", token, err)
		}
		if err := sharded.Render(&got, token, analyzer.RenderOpts{TopN: 20}); err != nil {
			t.Fatalf("sharded %s: %v", token, err)
		}
		if want.Len() == 0 {
			t.Errorf("report %s rendered empty", token)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Errorf("report %s differs between serial and sharded reduction\n--- serial ---\n%s\n--- sharded ---\n%s",
				token, want.String(), got.String())
		}
	}
}

// TestShardedCompareByteIdentical covers the remaining front-end: the
// before/after comparison report across two separately reduced
// analyzers.
func TestShardedCompareByteIdentical(t *testing.T) {
	dirA, _ := goldenPair(t)
	dirA2 := goldenDirA2
	build := func(workers int, exps []*experiment.Experiment) *analyzer.Analyzer {
		a, err := analyzer.NewWithConfig(analyzer.Config{Workers: workers}, exps...)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	sBefore := build(1, loadAll(t, dirA))
	sAfter := build(1, loadAll(t, dirA2))
	pBefore := build(4, openAll(t, dirA))
	pAfter := build(4, openAll(t, dirA2))

	var want, got bytes.Buffer
	if err := analyzer.CompareReport(&want, sBefore, sAfter, analyzer.ByEvent(hwc.EvECStall), 20); err != nil {
		t.Fatal(err)
	}
	if err := analyzer.CompareReport(&got, pBefore, pAfter, analyzer.ByEvent(hwc.EvECStall), 20); err != nil {
		t.Fatal(err)
	}
	if want.Len() == 0 {
		t.Error("compare report rendered empty")
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Errorf("compare report differs between serial and sharded reduction\n--- serial ---\n%s\n--- sharded ---\n%s",
			want.String(), got.String())
	}
}
