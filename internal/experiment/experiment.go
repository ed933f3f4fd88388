// Package experiment defines the on-disk experiment format produced by
// the collector and consumed by the analyzer — the equivalent of the
// paper's experiment directories: a log file, the load-object
// description, and one data file per kind of profile data, plus a copy of
// the profiled program (text and symbol tables).
//
// Crucially, the experiment carries no ground truth about which
// instruction actually triggered each counter overflow: exactly like the
// real hardware, only the delivered PC, the collector's candidate trigger
// PC from apropos backtracking, and the recovered effective address are
// recorded.
//
// Counter events and allocation-site provenance records are stored as
// sharded streams (hwc0.ev2/hwc1.ev2 and prov.pv2, see shard.go) so
// records reach disk as collected and analysis can read disjoint shards
// in parallel. One stream implementation serves all three files: the
// same writer, header scanner, save path, manifest entry and salvage
// routine. This is format version 2; version 1, one monolithic gob blob
// per PIC, is no longer read, and Load and Open ask for such an
// experiment to be re-collected.
package experiment

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"dsprof/internal/asm"
	"dsprof/internal/faultfs"
	"dsprof/internal/hwc"
	"dsprof/internal/machine"
)

// NumPICs is the number of hardware counter registers (the chip has
// two); Meta.Counters and Experiment.HWC are indexed by PIC.
const NumPICs = 2

// CounterSpec is one armed hardware counter, as given to collect -h.
type CounterSpec struct {
	Event     hwc.Event
	Interval  uint64
	Backtrack bool // "+" prefix: apropos backtracking requested
}

// String renders the spec in collect syntax, e.g. "+ecstall,on".
func (c CounterSpec) String() string {
	s := ""
	if c.Backtrack {
		s = "+"
	}
	return fmt.Sprintf("%s%v,%d", s, c.Event, c.Interval)
}

// HWCEvent is one counter-overflow profile record.
type HWCEvent struct {
	PIC         int
	DeliveredPC uint64
	CandidatePC uint64 // candidate trigger PC from backtracking; 0 if none
	EA          uint64 // recovered effective address
	HasEA       bool
	Callstack   []uint64
	Cycles      uint64 // machine time of delivery
}

// ClockEvent is one clock-profiling tick record.
type ClockEvent struct {
	PC        uint64
	Callstack []uint64
	Cycles    uint64
}

// FormatVersion is the current on-disk experiment format version,
// written into Meta by Save. Any other version — the retired version 1,
// a truncated meta file (version 0) or a future format — is rejected so
// it never decodes into silently wrong data.
const FormatVersion = 2

// Meta is the experiment header (the log/loadobjects information).
type Meta struct {
	FormatVersion   int
	ProgName        string
	Command         string
	When            time.Time
	ClockHz         uint64
	ClockProfiling  bool
	ClockTickCycles uint64
	Counters        []CounterSpec // indexed by PIC
	Stats           machine.Stats
	HeapPageSize    uint64
	DCacheLine      int // D$ line size of the machine profiled on
	ECacheLine      int // E$ line size
	ExitStatus      string
	Label           string  // caller-supplied provenance tag (e.g. "baseline", "reorder:arc")
	Output          []int64 // the program's output longs, for transform validation

	// Degraded is empty for intact experiments. Recover sets it to a
	// human-readable summary of what a crash or corruption cost (e.g.
	// "recovered: pic0 lost 1 shard (312 events)"), and the analyzer
	// annotates reports built from such experiments.
	Degraded string
}

// Experiment is an experiment, in memory. Eagerly loaded (or freshly
// collected) experiments hold every record in HWC and Prov; experiments
// opened for streaming (Open) leave them empty and read shards from
// disk on demand. Either way, Shards/ReadShard/EventCount and
// ProvRecords/ProvCount present the same sharded view, so the analyzer
// does not care which path produced the experiment.
type Experiment struct {
	Meta   Meta
	Clock  []ClockEvent
	HWC    [NumPICs][]HWCEvent
	Allocs []machine.Alloc
	Prov   []machine.ProvRecord // allocation-site provenance (empty unless collected)
	Prog   *asm.Program

	hwc  [NumPICs]stream // backing of HWC[pic]
	prov stream          // backing of Prov
}

// stream is the backing of one shard stream. A file-backed stream
// (path non-empty) keeps its records in a shard file and shards is the
// file's index; otherwise the records live in the experiment's slice
// and shards caches synthetic descriptors of it.
type stream struct {
	path   string
	shards []Shard
	count  int  // records in the file
	owned  bool // a spooled file Save may rename away
}

// fileStream backs a stream with the shard file at path.
func fileStream(path string, shards []Shard) stream {
	n := 0
	for _, sh := range shards {
		n += sh.Count
	}
	return stream{path: path, shards: shards, count: n}
}

// Interval returns the overflow interval for the counter on PIC pic.
func (e *Experiment) Interval(pic int) uint64 {
	if pic < 0 || pic >= len(e.Meta.Counters) {
		return 0
	}
	return e.Meta.Counters[pic].Interval
}

const (
	logFile    = "log.txt"
	metaFile   = "meta.gob"
	clockFile  = "clock.gob"
	allocsFile = "allocs.gob"
	progFile   = "program.obj"
)

// writeFileAtomic writes dir/name via a same-directory temp file and a
// rename, so a crash at any point leaves either the old complete file or
// the new complete file — never a truncated one. (The temp name ends in
// ".tmp"; Recover sweeps strays left by a crash between write and
// rename.)
func writeFileAtomic(fsys faultfs.FS, dir, name string, data []byte) error {
	tmp := filepath.Join(dir, name+".tmp")
	if err := faultfs.WriteFile(fsys, tmp, data); err != nil {
		return err
	}
	return fsys.Rename(tmp, filepath.Join(dir, name))
}

// init pins the process-global gob type IDs of every experiment wire
// type in a canonical order. gob allocates stream type IDs from one
// global counter on first encode, so without this the byte encoding of
// a data file would depend on which file a run happened to encode first
// — e.g. a provenance-enabled collect spools ProvRecord payloads before
// Save writes clock.gob, shifting ClockEvent's ID and breaking
// cross-process byte-identity of otherwise identical files.
func init() {
	enc := gob.NewEncoder(io.Discard)
	for _, v := range []any{
		&Meta{},
		[]ClockEvent{{}},
		[]HWCEvent{{}},
		[]machine.Alloc{{}},
		[]machine.ProvRecord{{}},
	} {
		if err := enc.Encode(v); err != nil {
			panic(err)
		}
	}
}

func writeGob(fsys faultfs.FS, dir, name string, v any) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return err
	}
	return writeFileAtomic(fsys, dir, name, buf.Bytes())
}

// readGob decodes one data file. Decoding never panics even on
// truncated or corrupted input: gob's decoder can panic on some
// malformed streams, so the recover turns that into a plain error.
func readGob(dir, name string, v any) (err error) {
	f, err := os.Open(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("corrupted %s: %v", name, r)
		}
	}()
	if err := gob.NewDecoder(f).Decode(v); err != nil {
		return fmt.Errorf("corrupted %s: %w", name, err)
	}
	return nil
}

// AdoptShards attaches a spooled shard file (written by a ShardWriter
// during collection) as the backing store of the stream its shards
// belong to, as their PIC label says: a PIC's counter events or the
// provenance records. The experiment keeps that stream's slice (HWC[pic]
// or Prov) empty; Save will move or copy the file into the experiment
// directory. An empty table adopts nothing.
func (e *Experiment) AdoptShards(path string, shards []Shard) {
	if len(shards) == 0 {
		return
	}
	st := e.stream(shards[0].PIC)
	*st = fileStream(path, shards)
	st.owned = true
}

// stream returns the backing of the stream whose shards carry the PIC
// label pic.
func (e *Experiment) stream(pic int) *stream {
	if pic == provPIC {
		return &e.prov
	}
	return &e.hwc[pic]
}

// shardTable returns a stream's shard table: the file's index for a
// file-backed stream, fixed-size synthetic slices of recs otherwise.
func shardTable[T any](st *stream, k shardKind[T], recs []T) []Shard {
	if st.path == "" && st.shards == nil && len(recs) > 0 {
		st.shards = syntheticShards(k, recs)
	}
	return st.shards
}

// readShard returns shard i of a stream. A file-backed read opens the
// file and decodes just that shard (safe from concurrent workers: every
// call uses its own file handle); an in-memory read returns a subslice
// of recs, which callers must not modify.
func readShard[T any](st *stream, k shardKind[T], recs []T, i int) ([]T, error) {
	shards := shardTable(st, k, recs)
	if i < 0 || i >= len(shards) {
		return nil, fmt.Errorf("experiment: ReadShard: shard %d/%d out of range", i, len(shards))
	}
	if st.path == "" {
		lo := i * DefaultShardEvents
		hi := lo + shards[i].Count
		return recs[lo:hi:hi], nil
	}
	return readShardFile[T](st.path, shards[i])
}

// ProvCount returns the number of provenance records recorded, without
// decoding file-backed streams. Zero means provenance was not collected.
func (e *Experiment) ProvCount() int {
	if e.prov.path != "" {
		return e.prov.count
	}
	return len(e.Prov)
}

// ProvRecords streams every provenance record to fn in collection order
// without materializing file-backed streams. fn returning an error stops
// the iteration and ProvRecords returns that error.
func (e *Experiment) ProvRecords(fn func(machine.ProvRecord) error) error {
	for i := range shardTable(&e.prov, provKind, e.Prov) {
		recs, err := readShard(&e.prov, provKind, e.Prov, i)
		if err != nil {
			return err
		}
		for _, rec := range recs {
			if err := fn(rec); err != nil {
				return err
			}
		}
	}
	return nil
}

// EventCount returns the number of counter events recorded for a PIC,
// without decoding file-backed streams.
func (e *Experiment) EventCount(pic int) int {
	if pic < 0 || pic >= NumPICs {
		return 0
	}
	if e.hwc[pic].path != "" {
		return e.hwc[pic].count
	}
	return len(e.HWC[pic])
}

// Shards returns the shard table for a PIC: real file-backed shards for
// streamed experiments, synthetic fixed-size slices of HWC otherwise.
// The table is the unit of the analyzer's parallel reduction.
func (e *Experiment) Shards(pic int) []Shard {
	if pic < 0 || pic >= NumPICs {
		return nil
	}
	return shardTable(&e.hwc[pic], hwcKinds[pic], e.HWC[pic])
}

// ReadShard returns one shard of a PIC's events (see readShard). Events
// from file-backed shards are validated the same way Load validates
// eager streams.
func (e *Experiment) ReadShard(pic, i int) ([]HWCEvent, error) {
	if pic < 0 || pic >= NumPICs {
		return nil, fmt.Errorf("experiment: ReadShard: PIC %d out of range", pic)
	}
	st := &e.hwc[pic]
	evs, err := readShard(st, hwcKinds[pic], e.HWC[pic], i)
	if err != nil || st.path == "" {
		return evs, err
	}
	if err := validateEvents(pic, evs, e.Meta.Counters); err != nil {
		return nil, fmt.Errorf("%s: shard %d: %w", st.path, i, err)
	}
	return evs, nil
}

// validateEvents checks decoded counter events against the experiment
// header before they reach the analyzer: every event's PIC must match
// the stream it was read from (and hence lie in [0,NumPICs)), and a
// stream may only contain events if its counter is actually armed. A
// corrupted or hand-edited file yields a descriptive error here instead
// of an out-of-range index downstream.
func validateEvents(pic int, evs []HWCEvent, counters []CounterSpec) error {
	if len(evs) == 0 {
		return nil
	}
	if pic >= len(counters) || counters[pic].Event == hwc.EvNone {
		return fmt.Errorf("%d events recorded for PIC %d, but no counter is armed on it", len(evs), pic)
	}
	for i, ev := range evs {
		if ev.PIC != pic {
			return fmt.Errorf("event %d: PIC %d, want %d (stream/event mismatch)", i, ev.PIC, pic)
		}
	}
	return nil
}

// Save writes the experiment as a directory in the current format,
// stamping the format version into the meta header. Records held in
// memory are written as shard files; file-backed streams (spooled
// during collection or opened from another directory) are moved or
// copied without re-encoding.
//
// Save is crash-safe: every data file is written via temp-and-rename,
// the integrity manifest is written last (its presence certifies the
// directory complete), and the directory is fsynced so a committed
// experiment survives power loss. A crash mid-Save leaves either the
// previous complete file or a recoverable partial state, never a
// silently truncated experiment.
func (e *Experiment) Save(dir string) error {
	return e.SaveFS(faultfs.OS, dir)
}

// SaveFS is Save through a pluggable filesystem — the fault-injection
// and crash-trace-recording seam.
func (e *Experiment) SaveFS(fsys faultfs.FS, dir string) error {
	fsys = faultfs.Or(fsys)
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	e.Meta.FormatVersion = FormatVersion
	if err := writeGob(fsys, dir, metaFile, &e.Meta); err != nil {
		return err
	}
	if err := writeGob(fsys, dir, clockFile, e.Clock); err != nil {
		return err
	}
	for pic := range e.hwc {
		if err := saveStream(fsys, dir, &e.hwc[pic], hwcKinds[pic], e.HWC[pic]); err != nil {
			return err
		}
	}
	if err := writeGob(fsys, dir, allocsFile, e.Allocs); err != nil {
		return err
	}
	if err := saveStream(fsys, dir, &e.prov, provKind, e.Prov); err != nil {
		return err
	}
	if err := e.writeProgram(fsys, dir); err != nil {
		return err
	}
	if err := e.writeLog(fsys, dir); err != nil {
		return err
	}
	if err := WriteManifest(fsys, dir); err != nil {
		return err
	}
	return fsys.SyncDir(dir)
}

// saveStream writes one stream into dir. A file-backed stream whose
// file already lives at the target path is left in place; one spooled
// elsewhere is renamed in (falling back to a copy across filesystems);
// one opened from another experiment directory is copied, since its
// source must stay readable. An in-memory stream is written shard by
// shard. An empty stream writes no file and removes a stale one from a
// previous Save into the same directory, so an experiment without
// provenance has no prov.pv2 and a PIC without events no hwc file.
func saveStream[T any](fsys faultfs.FS, dir string, st *stream, k shardKind[T], recs []T) error {
	target := filepath.Join(dir, k.name)
	if st.path == "" {
		if len(recs) > 0 {
			return writeShards(fsys, target, k, recs)
		}
		if _, err := os.Stat(target); err == nil {
			fsys.Remove(target)
		}
		return nil
	}
	if same, err := samePath(st.path, target); err == nil && same {
		return nil
	}
	if st.owned {
		if err := fsys.Rename(st.path, target); err != nil {
			if err := copyFile(fsys, st.path, target); err != nil {
				return fmt.Errorf("experiment: moving spooled %s: %w", k.name, err)
			}
			fsys.Remove(st.path)
		}
	} else if err := copyFile(fsys, st.path, target); err != nil {
		return fmt.Errorf("experiment: copying %s: %w", k.name, err)
	}
	st.path = target
	return nil
}

// writeProgram writes the profiled program object, if there is one.
func (e *Experiment) writeProgram(fsys faultfs.FS, dir string) error {
	if e.Prog == nil {
		return nil
	}
	var buf bytes.Buffer
	if err := e.Prog.Save(&buf); err != nil {
		return err
	}
	return writeFileAtomic(fsys, dir, progFile, buf.Bytes())
}

// samePath reports whether two paths name the same file.
func samePath(a, b string) (bool, error) {
	sa, err := os.Stat(a)
	if err != nil {
		return false, err
	}
	sb, err := os.Stat(b)
	if err != nil {
		return false, err
	}
	return os.SameFile(sa, sb), nil
}

// copyFile copies src (read from the real filesystem) to dst through
// fsys — sources are always readable experiment data; only the write
// side goes through the pluggable seam.
func copyFile(fsys faultfs.FS, src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := fsys.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// writeLog writes the human-readable log.txt.
func (e *Experiment) writeLog(fsys faultfs.FS, dir string) error {
	f := &bytes.Buffer{}
	fmt.Fprintf(f, "experiment: %s\n", e.Meta.Command)
	fmt.Fprintf(f, "target: %s\n", e.Meta.ProgName)
	fmt.Fprintf(f, "when: %s\n", e.Meta.When.Format(time.RFC3339))
	if e.Meta.Label != "" {
		fmt.Fprintf(f, "label: %s\n", e.Meta.Label)
	}
	fmt.Fprintf(f, "clock: %d Hz\n", e.Meta.ClockHz)
	if e.Meta.ClockProfiling {
		fmt.Fprintf(f, "clock-profiling: every %d cycles, %d ticks\n",
			e.Meta.ClockTickCycles, len(e.Clock))
	}
	for pic, c := range e.Meta.Counters {
		if c.Event != hwc.EvNone {
			fmt.Fprintf(f, "counter %d: %s, %d overflow events\n", pic, c, e.EventCount(pic))
		}
	}
	if n := e.ProvCount(); n > 0 {
		fmt.Fprintf(f, "provenance: %d records\n", n)
	}
	fmt.Fprintf(f, "instructions: %d\ncycles: %d\n", e.Meta.Stats.Instrs, e.Meta.Stats.Cycles)
	fmt.Fprintf(f, "exit: %s\n", e.Meta.ExitStatus)
	if e.Meta.Degraded != "" {
		fmt.Fprintf(f, "degraded: %s\n", e.Meta.Degraded)
	}
	return writeFileAtomic(fsys, dir, logFile, f.Bytes())
}

// Load reads an experiment directory written by Save, eagerly: every
// counter event is decoded into HWC and every provenance record into
// Prov. It never panics: a missing directory, a missing or truncated
// data file, a format version mismatch, an internally inconsistent meta
// header, or event records inconsistent with the armed counters all
// produce a descriptive error.
func Load(dir string) (*Experiment, error) {
	e, err := open(dir)
	if err != nil {
		return nil, err
	}
	for pic := range e.hwc {
		check := func(evs []HWCEvent) error { return validateEvents(pic, evs, e.Meta.Counters) }
		if e.HWC[pic], err = materialize(&e.hwc[pic], e.HWC[pic], check); err != nil {
			return nil, fmt.Errorf("experiment %s: %w", dir, err)
		}
	}
	if e.Prov, err = materialize(&e.prov, e.Prov, nil); err != nil {
		return nil, fmt.Errorf("experiment %s: %w", dir, err)
	}
	return e, nil
}

// materialize decodes every shard of a file-backed stream, each
// accepted by check (nil accepts all), and detaches the file; an
// in-memory stream returns recs unchanged.
func materialize[T any](st *stream, recs []T, check func([]T) error) ([]T, error) {
	if st.path == "" {
		return recs, nil
	}
	out := make([]T, 0, st.count)
	for _, sh := range st.shards {
		r, err := readShardFile[T](st.path, sh)
		if err != nil {
			return nil, err
		}
		if check != nil {
			if err := check(r); err != nil {
				return nil, fmt.Errorf("%s: shard %d: %w", st.path, sh.Index, err)
			}
		}
		out = append(out, r...)
	}
	*st = stream{}
	return out, nil
}

// Open reads an experiment directory for streaming: the header, clock
// data, allocations, and program load eagerly (they are small), but the
// counter events and provenance records stay on disk, exposed through
// Shards/ReadShard and ProvRecords. Like Load, Open never panics on
// corrupted input.
func Open(dir string) (*Experiment, error) {
	return open(dir)
}

// open is the shared loader: everything but file-backed shard payloads.
func open(dir string) (*Experiment, error) {
	st, err := os.Stat(dir)
	if err != nil {
		return nil, fmt.Errorf("experiment %s: %w", dir, err)
	}
	if !st.IsDir() {
		return nil, fmt.Errorf("experiment %s: not a directory", dir)
	}
	e := &Experiment{}
	if err := readGob(dir, metaFile, &e.Meta); err != nil {
		return nil, fmt.Errorf("experiment %s: reading meta: %w", dir, err)
	}
	if v := e.Meta.FormatVersion; v != FormatVersion {
		return nil, fmt.Errorf("experiment %s: format version %d, want %d (re-collect the experiment)",
			dir, v, FormatVersion)
	}
	if n := len(e.Meta.Counters); n != NumPICs {
		return nil, fmt.Errorf("experiment %s: corrupted meta: %d counter slots, want %d", dir, n, NumPICs)
	}
	if err := readGob(dir, clockFile, &e.Clock); err != nil {
		return nil, fmt.Errorf("experiment %s: reading clock data: %w", dir, err)
	}
	// Index the shard files; payloads stay on disk.
	for pic := range e.hwc {
		if e.hwc[pic], err = openStream(dir, hwcKinds[pic].shardFile); err != nil {
			return nil, fmt.Errorf("experiment %s: %w", dir, err)
		}
		if e.hwc[pic].count > 0 && e.Meta.Counters[pic].Event == hwc.EvNone {
			return nil, fmt.Errorf("experiment %s: %s: events recorded for PIC %d, but no counter is armed on it",
				dir, ShardFileName(pic), pic)
		}
	}
	if e.prov, err = openStream(dir, provKind.shardFile); err != nil {
		return nil, fmt.Errorf("experiment %s: %w", dir, err)
	}
	// Attach the manifest's shard checksums when one exists, so
	// every shard read is integrity-checked. Pre-manifest and
	// recovered-without-manifest experiments load unverified.
	if m, err := ReadManifest(dir); err == nil {
		e.attachManifest(m)
	}
	if err := readGob(dir, allocsFile, &e.Allocs); err != nil {
		return nil, fmt.Errorf("experiment %s: reading allocs: %w", dir, err)
	}
	prog, err := loadProgram(filepath.Join(dir, progFile))
	if err != nil {
		return nil, fmt.Errorf("experiment %s: reading program: %w", dir, err)
	}
	e.Prog = prog
	return e, nil
}

// openStream indexes the shard file sf in dir. A missing file, or one
// with no shards, is an empty in-memory stream; any damage fails.
func openStream(dir string, sf shardFile) (stream, error) {
	path := filepath.Join(dir, sf.name)
	shards, loss, err := scanShards(path, sf)
	if err != nil {
		return stream{}, fmt.Errorf("reading %s: %w", sf.name, err)
	}
	if loss != nil {
		return stream{}, fmt.Errorf("reading %s: corrupted %w", sf.name, loss)
	}
	if len(shards) == 0 {
		return stream{}, nil
	}
	return fileStream(path, shards), nil
}

// ReadMeta reads just the meta header of an experiment directory,
// without touching event data. It accepts only the current format
// version.
func ReadMeta(dir string) (*Meta, error) {
	var m Meta
	if err := readGob(dir, metaFile, &m); err != nil {
		return nil, fmt.Errorf("experiment %s: reading meta: %w", dir, err)
	}
	if v := m.FormatVersion; v != FormatVersion {
		return nil, fmt.Errorf("experiment %s: format version %d, want %d", dir, v, FormatVersion)
	}
	return &m, nil
}

// loadProgram reads the saved program object, converting any decoder
// panic on a corrupted file into an error.
func loadProgram(path string) (prog *asm.Program, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("corrupted program object: %v", r)
		}
	}()
	return asm.LoadFile(path)
}
