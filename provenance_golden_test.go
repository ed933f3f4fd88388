// Golden byte-identity for provenance collection: recording
// allocation-site provenance must be a pure addition. A run with
// provenance enabled writes the same counter event shards and clock
// data byte-for-byte as the same run with it disabled — the only new
// file is the prov.pv2 shard — and every pre-existing report renders
// byte-identically from either experiment.
package dsprof_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dsprof/internal/analyzer"
	"dsprof/internal/cc"
	"dsprof/internal/collect"
	"dsprof/internal/core"
	"dsprof/internal/experiment"
	"dsprof/internal/mcf"
	"dsprof/internal/objtrack"
)

// newObjectReports are the reports introduced by the provenance join;
// everything else predates it and must not notice the new shard.
var newObjectReports = map[string]bool{
	"site-heat":    true,
	"obj-timeline": true,
	"dead-objects": true,
	"pool-advice":  true,
}

// provPair collects the same MCF run twice — provenance off, then on —
// and saves both experiment directories.
func provPair(t *testing.T) (offDir, onDir string) {
	t.Helper()
	prog, err := mcf.Program(mcf.LayoutPaper, cc.Options{HWCProf: true})
	if err != nil {
		t.Fatal(err)
	}
	input := mcf.Generate(mcf.DefaultGenParams(120, 20030717)).Encode()
	cfg := core.StudyMachine()
	run := func(provenance bool, dir string) {
		res, err := core.CollectRun(t.Context(), prog, "+ecstall,10007,+ecrm,503", collect.Options{
			ClockProfile: true, Machine: &cfg, Input: input, Provenance: provenance,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Exp.Save(dir); err != nil {
			t.Fatal(err)
		}
	}
	root := t.TempDir()
	offDir = filepath.Join(root, "off.er")
	onDir = filepath.Join(root, "on.er")
	run(false, offDir)
	run(true, onDir)
	return offDir, onDir
}

func TestProvenanceShardsByteIdentical(t *testing.T) {
	offDir, onDir := provPair(t)
	offFiles, err := os.ReadDir(offDir)
	if err != nil {
		t.Fatal(err)
	}
	// The measurement data — counter event shards and clock ticks — must
	// be byte-identical: provenance recording must not perturb the
	// simulated run or its sampling. The metadata files (log.txt's "when"
	// stamp, meta.gob/program.obj gob encoding, the manifest's checksums
	// over them) differ even between two identical runs, so they carry no
	// byte-identity contract; the report-level test below covers their
	// semantic equality.
	compared := 0
	for _, f := range offFiles {
		name := f.Name()
		if !strings.HasSuffix(name, ".ev2") && name != "clock.gob" {
			continue
		}
		off, err := os.ReadFile(filepath.Join(offDir, name))
		if err != nil {
			t.Fatal(err)
		}
		on, err := os.ReadFile(filepath.Join(onDir, name))
		if err != nil {
			t.Fatalf("provenance-on experiment lost file %s: %v", name, err)
		}
		if !bytes.Equal(off, on) {
			t.Errorf("data shard %s differs between provenance off and on (%d vs %d bytes)", name, len(off), len(on))
		}
		compared++
	}
	if compared == 0 {
		t.Fatal("no event shards compared; experiment layout changed?")
	}
	// The only new file is the provenance shard itself.
	onFiles, err := os.ReadDir(onDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(onFiles) != len(offFiles)+1 {
		t.Errorf("provenance-on dir has %d files, off has %d; want exactly one extra (prov.pv2)", len(onFiles), len(offFiles))
	}
	if _, err := os.Stat(filepath.Join(onDir, experiment.ProvFileName)); err != nil {
		t.Errorf("provenance-on experiment missing %s: %v", experiment.ProvFileName, err)
	}
	if _, err := os.Stat(filepath.Join(offDir, experiment.ProvFileName)); err == nil {
		t.Errorf("provenance-off experiment has a %s", experiment.ProvFileName)
	}
}

func TestProvenanceReportsByteIdentical(t *testing.T) {
	offDir, onDir := provPair(t)
	open := func(dir string) *analyzer.Analyzer {
		e, err := experiment.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		a, err := analyzer.New(e)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	off, on := open(offDir), open(onDir)
	for _, name := range analyzer.ReportNames() {
		token := name
		if arg, ok := reportArgs[name]; ok {
			token += "=" + arg
		}
		if newObjectReports[name] {
			// The object reports need the provenance shard: they must
			// render from the enabled run and fail cleanly without it.
			if err := on.Render(&bytes.Buffer{}, token, analyzer.RenderOpts{TopN: 20}); err != nil {
				t.Errorf("%s with provenance: %v", token, err)
			}
			if err := off.Render(&bytes.Buffer{}, token, analyzer.RenderOpts{TopN: 20}); !errors.Is(err, objtrack.ErrNoProvenance) {
				t.Errorf("%s without provenance: err = %v, want ErrNoProvenance", token, err)
			}
			continue
		}
		var want, got bytes.Buffer
		if err := off.Render(&want, token, analyzer.RenderOpts{TopN: 20}); err != nil {
			t.Fatalf("%s without provenance: %v", token, err)
		}
		if err := on.Render(&got, token, analyzer.RenderOpts{TopN: 20}); err != nil {
			t.Fatalf("%s with provenance: %v", token, err)
		}
		if want.Len() == 0 {
			t.Errorf("report %s rendered empty", token)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Errorf("report %s differs with provenance enabled\n--- off ---\n%s\n--- on ---\n%s",
				token, want.String(), got.String())
		}
	}
}
