package experiment

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"dsprof/internal/asm"
	"dsprof/internal/dwarf"
	"dsprof/internal/faultfs"
	"dsprof/internal/hwc"
	"dsprof/internal/isa"
	"dsprof/internal/machine"
)

func sample() *Experiment {
	tab := dwarf.NewTable(dwarf.FormatDWARF)
	tab.AddFunc(dwarf.Func{Name: "main", Start: machine.TextBase, End: machine.TextBase + 8, HWCProf: true})
	prog := &asm.Program{
		Name:  "sample",
		Base:  machine.TextBase,
		Entry: machine.TextBase,
		Text:  []isa.Instr{{Op: isa.Nop}, {Op: isa.Halt}},
		Debug: tab,
	}
	e := &Experiment{Prog: prog}
	e.Meta = Meta{
		ProgName:        "sample",
		Command:         "collect -p on -h +ecstall,lo sample",
		When:            time.Date(2003, 7, 17, 12, 0, 0, 0, time.UTC),
		ClockHz:         900_000_000,
		ClockProfiling:  true,
		ClockTickCycles: 9_000_011,
		Counters: []CounterSpec{
			{Event: hwc.EvECStall, Interval: 100003, Backtrack: true},
			{},
		},
		Stats:        machine.Stats{Instrs: 1000, Cycles: 5000},
		HeapPageSize: 8192,
		DCacheLine:   32,
		ECacheLine:   512,
		ExitStatus:   "ok",
	}
	e.Clock = []ClockEvent{{PC: machine.TextBase, Cycles: 100}}
	e.HWC[0] = []HWCEvent{{
		PIC: 0, DeliveredPC: machine.TextBase + 4, CandidatePC: machine.TextBase,
		EA: 0x40000000, HasEA: true, Callstack: []uint64{machine.TextBase}, Cycles: 42,
	}}
	e.Allocs = []machine.Alloc{{Addr: 0x40000000, Size: 128, Seq: 0}}
	return e
}

func TestCounterSpecString(t *testing.T) {
	cs := CounterSpec{Event: hwc.EvECStall, Interval: 100003, Backtrack: true}
	if got := cs.String(); got != "+ecstall,100003" {
		t.Errorf("String = %q", got)
	}
	cs.Backtrack = false
	if got := cs.String(); got != "ecstall,100003" {
		t.Errorf("String = %q", got)
	}
}

func TestInterval(t *testing.T) {
	e := sample()
	if e.Interval(0) != 100003 {
		t.Errorf("Interval(0) = %d", e.Interval(0))
	}
	if e.Interval(1) != 0 || e.Interval(-1) != 0 || e.Interval(5) != 0 {
		t.Error("out-of-range Interval should be 0")
	}
}

func TestSaveLoadRoundtrip(t *testing.T) {
	e := sample()
	dir := filepath.Join(t.TempDir(), "s.er")
	if err := e.Save(dir); err != nil {
		t.Fatal(err)
	}
	back, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.Meta.Command != e.Meta.Command || back.Meta.ECacheLine != 512 {
		t.Errorf("meta lost: %+v", back.Meta)
	}
	if len(back.Clock) != 1 || len(back.HWC[0]) != 1 || len(back.HWC[1]) != 0 {
		t.Error("events lost")
	}
	ev := back.HWC[0][0]
	if ev.CandidatePC != machine.TextBase || !ev.HasEA || ev.EA != 0x40000000 {
		t.Errorf("event fields lost: %+v", ev)
	}
	if len(back.Allocs) != 1 || back.Allocs[0].Size != 128 {
		t.Error("allocs lost")
	}
	if back.Prog == nil || back.Prog.Debug.FuncByName("main") == nil {
		t.Error("program lost")
	}
}

func TestLogFileWritten(t *testing.T) {
	e := sample()
	dir := filepath.Join(t.TempDir(), "s.er")
	if err := e.Save(dir); err != nil {
		t.Fatal(err)
	}
	log, err := os.ReadFile(filepath.Join(dir, "log.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"experiment:", "target: sample", "counter 0: +ecstall,100003", "exit: ok", "clock-profiling"} {
		if !strings.Contains(string(log), want) {
			t.Errorf("log.txt missing %q:\n%s", want, log)
		}
	}
}

func TestLoadMissingDir(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope.er")); err == nil {
		t.Error("Load of missing directory succeeded")
	}
}

func TestLoadCorrupted(t *testing.T) {
	e := sample()
	dir := filepath.Join(t.TempDir(), "s.er")
	if err := e.Save(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "meta.gob"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil {
		t.Error("Load of corrupted experiment succeeded")
	}
}

// TestLoadNeverPanics corrupts every data file in turn — truncation,
// garbage, emptiness, and a file that exists but cannot be opened — and
// checks Load returns an error naming the bad file instead of
// panicking. A *missing* shard file is the one legal absence: it means
// the armed counter recorded zero overflows. An unreadable file is an
// I/O failure, not damage: neither Load nor BuildManifest may report it
// as a corrupted file.
func TestLoadNeverPanics(t *testing.T) {
	files := []string{"meta.gob", "clock.gob", "hwc0.ev2", "allocs.gob", "program.obj"}
	corruptions := map[string]func(path string) error{
		"truncated": func(path string) error {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			return os.WriteFile(path, b[:len(b)/2], 0o644)
		},
		"garbage": func(path string) error {
			return os.WriteFile(path, []byte{0xff, 0x13, 0x01, 0xfe, 0x00, 0x7f}, 0o644)
		},
		"empty": func(path string) error {
			return os.WriteFile(path, nil, 0o644)
		},
		"missing": os.Remove,
		// A symlink to itself: present, but every open fails.
		"unreadable": func(path string) error {
			if err := os.Remove(path); err != nil {
				return err
			}
			return os.Symlink(filepath.Base(path), path)
		},
	}
	for how, corrupt := range corruptions {
		for _, name := range files {
			t.Run(how+"/"+name, func(t *testing.T) {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("Load panicked: %v", r)
					}
				}()
				dir := filepath.Join(t.TempDir(), "s.er")
				if err := sample().Save(dir); err != nil {
					t.Fatal(err)
				}
				if err := corrupt(filepath.Join(dir, name)); err != nil {
					t.Fatal(err)
				}
				_, err := Load(dir)
				if how == "missing" && name == "hwc0.ev2" {
					if err != nil {
						t.Errorf("Load without the (optional) shard file failed: %v", err)
					}
					return
				}
				if err == nil {
					t.Errorf("Load of %s %s experiment succeeded", how, name)
				}
				if how == "unreadable" {
					_, merr := BuildManifest(dir)
					for _, err := range []error{err, merr} {
						if err != nil && strings.Contains(err.Error(), "corrupted") {
							t.Errorf("unreadable %s reported as damage: %v", name, err)
						}
					}
				}
			})
		}
	}
}

func TestFormatVersion(t *testing.T) {
	e := sample()
	dir := filepath.Join(t.TempDir(), "s.er")
	if err := e.Save(dir); err != nil {
		t.Fatal(err)
	}
	if e.Meta.FormatVersion != FormatVersion {
		t.Fatalf("Save stamped version %d, want %d", e.Meta.FormatVersion, FormatVersion)
	}
	// Rewrite the meta header with a mismatching version: Load must
	// reject it with an error that names both versions.
	bad := e.Meta
	bad.FormatVersion = FormatVersion + 7
	if err := writeGob(faultfs.OS, dir, "meta.gob", &bad); err != nil {
		t.Fatal(err)
	}
	_, err := Load(dir)
	if err == nil {
		t.Fatal("Load accepted a mismatched format version")
	}
	if !strings.Contains(err.Error(), "format version") {
		t.Errorf("unhelpful version error: %v", err)
	}
}

func TestLoadRejectsBadCounterSlots(t *testing.T) {
	e := sample()
	dir := filepath.Join(t.TempDir(), "s.er")
	if err := e.Save(dir); err != nil {
		t.Fatal(err)
	}
	bad := e.Meta
	bad.Counters = bad.Counters[:1]
	if err := writeGob(faultfs.OS, dir, "meta.gob", &bad); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil || !strings.Contains(err.Error(), "counter slots") {
		t.Errorf("Load of truncated counter table: %v", err)
	}
}

// TestV1Compat checks that a format-version-1 experiment, whose reader
// is retired, is refused everywhere with an actionable error: Load and
// Open ask for a re-collect, ReadMeta reports the version, and Recover
// reports it unrecoverable rather than rewriting it.
func TestV1Compat(t *testing.T) {
	e := sample()
	dir := filepath.Join(t.TempDir(), "v1.er")
	if err := e.Save(dir); err != nil {
		t.Fatal(err)
	}
	meta := e.Meta
	meta.FormatVersion = 1
	if err := writeGob(faultfs.OS, dir, metaFile, &meta); err != nil {
		t.Fatal(err)
	}
	for name, fn := range map[string]func(string) (*Experiment, error){"Load": Load, "Open": Open} {
		if _, err := fn(dir); err == nil || !strings.Contains(err.Error(), "re-collect the experiment") {
			t.Errorf("%s of a v1 experiment: %v, want a re-collect error", name, err)
		}
	}
	if _, err := ReadMeta(dir); err == nil || !strings.Contains(err.Error(), "format version 1") {
		t.Errorf("ReadMeta of a v1 experiment: %v, want a version error", err)
	}
	if _, err := Recover(dir); !errors.Is(err, ErrUnrecoverable) {
		t.Errorf("Recover of a v1 experiment: %v, want ErrUnrecoverable", err)
	}
}

// TestLoadRejectsBadPIC: a decoded event whose PIC doesn't match its
// stream must be rejected on load, before it can drive an out-of-range
// index in the analyzer.
func TestLoadRejectsBadPIC(t *testing.T) {
	t.Run("v2", func(t *testing.T) {
		e := sample()
		e.HWC[0][0].PIC = 1
		dir := filepath.Join(t.TempDir(), "v2.er")
		if err := e.Save(dir); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(dir); err == nil || !strings.Contains(err.Error(), "PIC") {
			t.Errorf("Load of mis-PICed event: %v", err)
		}
	})
}

// TestLoadRejectsUnarmedPICEvents: events recorded for a PIC whose
// counter spec says EvNone indicate a corrupted or mismatched
// experiment, and must be rejected.
func TestLoadRejectsUnarmedPICEvents(t *testing.T) {
	e := sample() // counter 1 is unarmed
	e.HWC[1] = []HWCEvent{{PIC: 1, DeliveredPC: machine.TextBase, Cycles: 7}}
	t.Run("v2", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "v2.er")
		if err := e.Save(dir); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(dir); err == nil || !strings.Contains(err.Error(), "armed") {
			t.Errorf("Load of unarmed-PIC events: %v", err)
		}
	})
}

// TestOpenStreaming checks that Open leaves v2 events on disk and that
// the sharded view matches the eager load byte for byte.
func TestOpenStreaming(t *testing.T) {
	e := sample()
	// Enough events for several shards.
	e.HWC[0] = nil
	for i := 0; i < 3*DefaultShardEvents+17; i++ {
		e.HWC[0] = append(e.HWC[0], HWCEvent{
			PIC: 0, DeliveredPC: machine.TextBase + 4, CandidatePC: machine.TextBase,
			EA: 0x40000000 + uint64(i), HasEA: true, Cycles: uint64(i) * 3,
		})
	}
	dir := filepath.Join(t.TempDir(), "s.er")
	if err := e.Save(dir); err != nil {
		t.Fatal(err)
	}
	op, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(op.HWC[0]) != 0 {
		t.Errorf("Open materialized %d events eagerly", len(op.HWC[0]))
	}
	if op.EventCount(0) != len(e.HWC[0]) {
		t.Errorf("EventCount = %d, want %d", op.EventCount(0), len(e.HWC[0]))
	}
	shards := op.Shards(0)
	if len(shards) != 4 {
		t.Fatalf("Shards = %d, want 4", len(shards))
	}
	if shards[3].Count != 17 {
		t.Errorf("tail shard count = %d, want 17", shards[3].Count)
	}
	if shards[1].MinCycles != uint64(DefaultShardEvents)*3 {
		t.Errorf("shard 1 MinCycles = %d", shards[1].MinCycles)
	}
	var got []HWCEvent
	for i := range shards {
		evs, err := op.ReadShard(0, i)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, evs...)
	}
	if len(got) != len(e.HWC[0]) {
		t.Fatalf("shards streamed %d events, want %d", len(got), len(e.HWC[0]))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], e.HWC[0][i]) {
			t.Fatalf("event %d differs: %+v vs %+v", i, got[i], e.HWC[0][i])
		}
	}
	// Re-saving an opened experiment to a new directory must not
	// disturb the source.
	dir2 := filepath.Join(t.TempDir(), "copy.er")
	if err := op.Save(dir2); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "hwc0.ev2")); err != nil {
		t.Errorf("source shard file vanished after Save-elsewhere: %v", err)
	}
	if back, err := Load(dir2); err != nil || len(back.HWC[0]) != len(e.HWC[0]) {
		t.Errorf("copied experiment: %v, %d events", err, len(back.HWC[0]))
	}
}

func TestReadMeta(t *testing.T) {
	e := sample()
	dir := filepath.Join(t.TempDir(), "s.er")
	if err := e.Save(dir); err != nil {
		t.Fatal(err)
	}
	m, err := ReadMeta(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.Command != e.Meta.Command || m.FormatVersion != FormatVersion {
		t.Errorf("ReadMeta = %+v", m)
	}
	if _, err := ReadMeta(filepath.Join(t.TempDir(), "nope.er")); err == nil {
		t.Error("ReadMeta of missing dir succeeded")
	}
}

func TestLoadFileInsteadOfDir(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plain")
	if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "not a directory") {
		t.Errorf("Load of a plain file: %v", err)
	}
}
