package experiment

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"dsprof/internal/asm"
	"dsprof/internal/dwarf"
	"dsprof/internal/hwc"
	"dsprof/internal/isa"
	"dsprof/internal/machine"
)

// fuzzSample builds a small valid experiment without depending on the
// _test.go sample() helper's shape staying stable.
func fuzzSample() *Experiment {
	tab := dwarf.NewTable(dwarf.FormatDWARF)
	tab.AddFunc(dwarf.Func{Name: "main", Start: machine.TextBase, End: machine.TextBase + 8, HWCProf: true})
	e := &Experiment{
		Prog: &asm.Program{
			Name:  "fuzz",
			Base:  machine.TextBase,
			Entry: machine.TextBase,
			Text:  []isa.Instr{{Op: isa.Nop}, {Op: isa.Halt}},
			Debug: tab,
		},
	}
	e.Meta = Meta{
		ProgName: "fuzz",
		Command:  "collect fuzz",
		When:     time.Date(2003, 7, 17, 12, 0, 0, 0, time.UTC),
		ClockHz:  900_000_000,
		Counters: []CounterSpec{
			{Event: hwc.EvECStall, Interval: 1009, Backtrack: true},
			{},
		},
		ExitStatus: "ok",
	}
	e.Clock = []ClockEvent{{PC: machine.TextBase, Cycles: 100}}
	e.HWC[0] = []HWCEvent{{PIC: 0, DeliveredPC: machine.TextBase + 4, Cycles: 42}}
	e.Prov = []machine.ProvRecord{
		{Site: machine.TextBase, Addr: 0x20000000, Size: 64, Seq: 0, Birth: 10},
		{Site: machine.TextBase + 4, Addr: 0x20000040, Size: 16, Seq: 1, Birth: 20, Death: 80, Freed: true},
	}
	return e
}

// FuzzExperimentLoad replaces each data file of a valid experiment with
// fuzz bytes and checks experiment.Load holds its documented contract: corrupt or
// truncated input returns an error, never a panic. (Load on a valid dir
// after mutation may also succeed if the fuzzer happens to produce a
// well-formed file; only panics and silent PIC-range violations are
// failures.)
func FuzzExperimentLoad(f *testing.F) {
	seedDir := f.TempDir()
	v2 := filepath.Join(seedDir, "v2.er")
	if err := fuzzSample().Save(v2); err != nil {
		f.Fatal(err)
	}
	v2files := []string{metaFile, clockFile, ShardFileName(0), allocsFile, progFile, ProvFileName, ManifestName}
	for _, name := range v2files {
		if b, err := os.ReadFile(filepath.Join(v2, name)); err == nil {
			f.Add(name, b[:len(b)/2])
			f.Add(name, b)
		}
	}
	f.Add(ShardFileName(0), []byte{0xff, 0x13, 0x01})
	f.Add(metaFile, []byte{})
	// Manifest seeds that stress the checksum-verification path: valid
	// JSON shape with wrong sums, and non-JSON garbage.
	f.Add(ManifestName, []byte(`{"format_version":2,"files":{"meta.gob":{"bytes":1,"crc32":7}},"shards":[[{"count":1,"bytes":9999,"crc32":1}],[]]}`))
	f.Add(ManifestName, []byte{0x7b, 0xff, 0x00})

	allNames := map[string]bool{
		metaFile: true, clockFile: true, allocsFile: true, progFile: true,
		ShardFileName(0): true, ShardFileName(1): true,
		ProvFileName: true, ManifestName: true,
	}

	f.Fuzz(func(t *testing.T, name string, data []byte) {
		if !allNames[name] {
			t.Skip()
		}
		dir := filepath.Join(t.TempDir(), "f.er")
		e := fuzzSample()
		if err := e.Save(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Load panicked on fuzzed %s: %v", name, r)
			}
		}()
		exp, err := Load(dir)
		if err != nil || exp == nil {
			return
		}
		// If the fuzzer produced a loadable experiment, the loader's
		// invariants must still hold.
		for pic := 0; pic < NumPICs; pic++ {
			for _, ev := range exp.HWC[pic] {
				if ev.PIC != pic {
					t.Fatalf("loaded event with PIC %d in stream %d", ev.PIC, pic)
				}
			}
		}
		// Streaming the provenance records must never panic either; an
		// error is fine (ProvCount promised more than the shards held).
		_ = exp.ProvRecords(func(machine.ProvRecord) error { return nil })
	})
}
