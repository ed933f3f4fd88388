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
// Counter events are stored as sharded files (hwc0.ev2/hwc1.ev2, see
// shard.go) so events stream to disk as collected and analysis can read
// disjoint shards in parallel. This is format version 2; version 1, one
// monolithic gob blob per PIC, is no longer read, and Load and Open ask
// for such an experiment to be re-collected.
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

// oldestReadableVersion is the oldest format Load still understands.
const oldestReadableVersion = 2

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
// collected) experiments hold every counter event in HWC; experiments
// opened for streaming (Open, format v2) leave HWC empty and read
// shards from disk on demand. Either way, Shards/ReadShard/Events/
// EventCount present the same sharded view, so the analyzer does not
// care which path produced the experiment.
type Experiment struct {
	Meta   Meta
	Clock  []ClockEvent
	HWC    [NumPICs][]HWCEvent
	Allocs []machine.Alloc
	Prov   []machine.ProvRecord // allocation-site provenance (empty unless collected)
	Prog   *asm.Program

	// Sharded event-stream backing. hwcPath[pic] is non-empty when the
	// PIC's events live in a v2 shard file rather than in HWC;
	// hwcShards is the shard index (real offsets for file-backed PICs,
	// synthetic descriptors otherwise).
	hwcPath   [NumPICs]string
	hwcShards [NumPICs][]Shard
	hwcCount  [NumPICs]int
	hwcOwned  [NumPICs]bool // true for spooled files Save may rename away

	// Provenance shard backing, the prov.pv2 analogue of the above.
	provPath   string
	provShards []Shard
	provCount  int
	provOwned  bool
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
	hwcEv2_0   = "hwc0.ev2" // sharded counter events, PIC 0
	hwcEv2_1   = "hwc1.ev2" // sharded counter events, PIC 1
	allocsFile = "allocs.gob"
	progFile   = "program.obj"
)

// hwcV2Name returns the v2 shard file name for a PIC.
func hwcV2Name(pic int) string {
	if pic == 0 {
		return hwcEv2_0
	}
	return hwcEv2_1
}

// ShardFileName returns the name of the v2 shard file for a PIC inside
// an experiment directory ("hwc0.ev2"/"hwc1.ev2") — for collectors that
// spool events straight into the output directory.
func ShardFileName(pic int) string { return hwcV2Name(pic) }

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
// during collection) as the backing store for one PIC. The experiment
// keeps HWC[pic] empty; Save will move or copy the file into the
// experiment directory.
func (e *Experiment) AdoptShards(pic int, path string, shards []Shard) {
	e.hwcPath[pic] = path
	e.hwcShards[pic] = shards
	e.hwcOwned[pic] = true
	n := 0
	for _, sh := range shards {
		n += sh.Count
	}
	e.hwcCount[pic] = n
}

// AdoptProvShards attaches a spooled provenance shard file (written by a
// ProvWriter during collection) as the experiment's provenance backing.
// The experiment keeps Prov empty; Save will move or copy the file into
// the experiment directory.
func (e *Experiment) AdoptProvShards(path string, shards []Shard) {
	e.provPath = path
	e.provShards = shards
	e.provOwned = true
	n := 0
	for _, sh := range shards {
		n += sh.Count
	}
	e.provCount = n
}

// ProvCount returns the number of provenance records recorded, without
// decoding file-backed streams. Zero means provenance was not collected.
func (e *Experiment) ProvCount() int {
	if e.provPath != "" {
		return e.provCount
	}
	return len(e.Prov)
}

// ProvShards returns the provenance shard table: real file-backed shards
// for streamed experiments, synthetic fixed-size slices of Prov
// otherwise.
func (e *Experiment) ProvShards() []Shard {
	if e.provPath != "" {
		return e.provShards
	}
	if e.provShards == nil && len(e.Prov) > 0 {
		e.provShards = syntheticProvShards(e.Prov)
	}
	return e.provShards
}

// ReadProvShard returns one provenance shard's records. Like ReadShard,
// file-backed reads use their own file handle (safe from concurrent
// workers) and in-memory reads return a subslice callers must not
// modify.
func (e *Experiment) ReadProvShard(i int) ([]machine.ProvRecord, error) {
	shards := e.ProvShards()
	if i < 0 || i >= len(shards) {
		return nil, fmt.Errorf("experiment: ReadProvShard: shard %d/%d out of range", i, len(shards))
	}
	if e.provPath == "" {
		lo := i * DefaultShardEvents
		hi := lo + shards[i].Count
		return e.Prov[lo:hi:hi], nil
	}
	return readProvShardFile(e.provPath, shards[i])
}

// ProvRecords streams every provenance record to fn in collection order
// without materializing file-backed streams. fn returning an error stops
// the iteration and ProvRecords returns that error.
func (e *Experiment) ProvRecords(fn func(machine.ProvRecord) error) error {
	for i := range e.ProvShards() {
		recs, err := e.ReadProvShard(i)
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
	if e.hwcPath[pic] != "" {
		return e.hwcCount[pic]
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
	if e.hwcPath[pic] != "" {
		return e.hwcShards[pic]
	}
	if e.hwcShards[pic] == nil && len(e.HWC[pic]) > 0 {
		e.hwcShards[pic] = syntheticShards(pic, e.HWC[pic])
	}
	return e.hwcShards[pic]
}

// ReadShard returns one shard's events. For file-backed experiments it
// opens the shard file and decodes just that shard (safe to call from
// concurrent workers: every call uses its own file handle); for
// in-memory experiments it returns a subslice of HWC, which callers
// must not modify. Events from file-backed shards are validated the
// same way Load validates eager streams.
func (e *Experiment) ReadShard(pic, i int) ([]HWCEvent, error) {
	if pic < 0 || pic >= NumPICs {
		return nil, fmt.Errorf("experiment: ReadShard: PIC %d out of range", pic)
	}
	shards := e.Shards(pic)
	if i < 0 || i >= len(shards) {
		return nil, fmt.Errorf("experiment: ReadShard: shard %d/%d out of range", i, len(shards))
	}
	if e.hwcPath[pic] == "" {
		lo := i * DefaultShardEvents
		hi := lo + shards[i].Count
		return e.HWC[pic][lo:hi:hi], nil
	}
	evs, err := readShardFile(e.hwcPath[pic], shards[i])
	if err != nil {
		return nil, err
	}
	if err := validateEvents(pic, evs, e.Meta.Counters); err != nil {
		return nil, fmt.Errorf("%s: shard %d: %w", e.hwcPath[pic], i, err)
	}
	return evs, nil
}

// Events streams every counter event of the experiment to fn, PIC 0
// first then PIC 1, each in collection order, without materializing
// file-backed streams in memory. fn returning an error stops the
// iteration and Events returns that error.
func (e *Experiment) Events(fn func(HWCEvent) error) error {
	for pic := 0; pic < NumPICs; pic++ {
		for i := range e.Shards(pic) {
			evs, err := e.ReadShard(pic, i)
			if err != nil {
				return err
			}
			for _, ev := range evs {
				if err := fn(ev); err != nil {
					return err
				}
			}
		}
	}
	return nil
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
// stamping the format version into the meta header. Counter events held
// in memory are sharded into v2 files; file-backed events (spooled
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
	for pic := 0; pic < NumPICs; pic++ {
		if err := e.saveHWC(fsys, dir, pic); err != nil {
			return err
		}
	}
	if err := writeGob(fsys, dir, allocsFile, e.Allocs); err != nil {
		return err
	}
	if err := e.saveProv(fsys, dir); err != nil {
		return err
	}
	if e.Prog != nil {
		var buf bytes.Buffer
		if err := e.Prog.Save(&buf); err != nil {
			return err
		}
		if err := writeFileAtomic(fsys, dir, progFile, buf.Bytes()); err != nil {
			return err
		}
	}
	if err := e.writeLog(fsys, dir); err != nil {
		return err
	}
	if err := WriteManifest(fsys, dir); err != nil {
		return err
	}
	return fsys.SyncDir(dir)
}

// saveHWC writes one PIC's events into dir as a v2 shard file. A
// file-backed PIC whose shard file already lives at the target path is
// left in place; one spooled elsewhere is renamed in (falling back to a
// copy across filesystems). PICs with no events write no file.
func (e *Experiment) saveHWC(fsys faultfs.FS, dir string, pic int) error {
	target := filepath.Join(dir, hwcV2Name(pic))
	if src := e.hwcPath[pic]; src != "" {
		if same, err := samePath(src, target); err == nil && same {
			return nil
		}
		if e.hwcOwned[pic] {
			// Spooled by the collector: move into place (copy across
			// filesystems).
			if err := fsys.Rename(src, target); err != nil {
				if err := copyFile(fsys, src, target); err != nil {
					return fmt.Errorf("experiment: moving spooled shards: %w", err)
				}
				fsys.Remove(src)
			}
		} else {
			// Opened from another experiment directory: the source must
			// stay readable, so copy.
			if err := copyFile(fsys, src, target); err != nil {
				return fmt.Errorf("experiment: copying shards: %w", err)
			}
		}
		e.hwcPath[pic] = target
		return nil
	}
	// No stale file from a previous Save into the same directory.
	if len(e.HWC[pic]) == 0 {
		if _, err := os.Stat(target); err == nil {
			fsys.Remove(target)
		}
		return nil
	}
	_, err := writeShardFile(fsys, target, pic, e.HWC[pic])
	return err
}

// saveProv writes the provenance stream into dir as prov.pv2, with the
// same leave/move/copy semantics as saveHWC. Experiments without
// provenance write no file (and remove a stale one), so a
// provenance-free Save is byte-identical to the pre-provenance format.
func (e *Experiment) saveProv(fsys faultfs.FS, dir string) error {
	target := filepath.Join(dir, ProvFileName)
	if src := e.provPath; src != "" {
		if same, err := samePath(src, target); err == nil && same {
			return nil
		}
		if e.provOwned {
			if err := fsys.Rename(src, target); err != nil {
				if err := copyFile(fsys, src, target); err != nil {
					return fmt.Errorf("experiment: moving spooled prov shards: %w", err)
				}
				fsys.Remove(src)
			}
		} else {
			if err := copyFile(fsys, src, target); err != nil {
				return fmt.Errorf("experiment: copying prov shards: %w", err)
			}
		}
		e.provPath = target
		return nil
	}
	if len(e.Prov) == 0 {
		if _, err := os.Stat(target); err == nil {
			fsys.Remove(target)
		}
		return nil
	}
	_, err := writeProvFile(fsys, target, e.Prov)
	return err
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
// counter event is decoded into HWC. It never panics: a
// missing directory, a missing or truncated data file, a format version
// mismatch, an internally inconsistent meta header, or event records
// inconsistent with the armed counters all produce a descriptive error.
func Load(dir string) (*Experiment, error) {
	e, err := open(dir)
	if err != nil {
		return nil, err
	}
	// Materialize file-backed streams.
	for pic := 0; pic < NumPICs; pic++ {
		if e.hwcPath[pic] == "" {
			continue
		}
		evs := make([]HWCEvent, 0, e.hwcCount[pic])
		for i := range e.hwcShards[pic] {
			sevs, err := e.ReadShard(pic, i)
			if err != nil {
				return nil, fmt.Errorf("experiment %s: %w", dir, err)
			}
			evs = append(evs, sevs...)
		}
		e.HWC[pic] = evs
		e.hwcPath[pic] = ""
		e.hwcShards[pic] = nil
		e.hwcCount[pic] = 0
	}
	if e.provPath != "" {
		recs := make([]machine.ProvRecord, 0, e.provCount)
		for i := range e.provShards {
			srecs, err := e.ReadProvShard(i)
			if err != nil {
				return nil, fmt.Errorf("experiment %s: %w", dir, err)
			}
			recs = append(recs, srecs...)
		}
		e.Prov = recs
		e.provPath = ""
		e.provShards = nil
		e.provCount = 0
	}
	return e, nil
}

// Open reads an experiment directory for streaming: the header, clock
// data, allocations, and program load eagerly (they are small), but the
// counter events stay on disk, exposed through Shards/ReadShard/Events.
// Like Load, Open never panics on corrupted input.
func Open(dir string) (*Experiment, error) {
	return open(dir)
}

// open is the shared loader: everything but file-backed event payloads.
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
	if v := e.Meta.FormatVersion; v < oldestReadableVersion || v > FormatVersion {
		return nil, fmt.Errorf("experiment %s: format version %d, want %d..%d (re-collect the experiment)",
			dir, v, oldestReadableVersion, FormatVersion)
	}
	if n := len(e.Meta.Counters); n != NumPICs {
		return nil, fmt.Errorf("experiment %s: corrupted meta: %d counter slots, want %d", dir, n, NumPICs)
	}
	if err := readGob(dir, clockFile, &e.Clock); err != nil {
		return nil, fmt.Errorf("experiment %s: reading clock data: %w", dir, err)
	}
	// Scan the shard indexes; payloads stay on disk.
	for pic := 0; pic < NumPICs; pic++ {
		path := filepath.Join(dir, hwcV2Name(pic))
		shards, err := readShardIndex(path, pic)
		if err != nil {
			return nil, fmt.Errorf("experiment %s: reading hwc%d shards: %w", dir, pic, err)
		}
		if len(shards) == 0 {
			continue
		}
		if e.Meta.Counters[pic].Event == hwc.EvNone {
			return nil, fmt.Errorf("experiment %s: %s: events recorded for PIC %d, but no counter is armed on it",
				dir, hwcV2Name(pic), pic)
		}
		n := 0
		for _, sh := range shards {
			n += sh.Count
		}
		e.hwcPath[pic] = path
		e.hwcShards[pic] = shards
		e.hwcCount[pic] = n
	}
	provPath := filepath.Join(dir, ProvFileName)
	provShards, err := readProvIndex(provPath)
	if err != nil {
		return nil, fmt.Errorf("experiment %s: reading prov shards: %w", dir, err)
	}
	if len(provShards) > 0 {
		n := 0
		for _, sh := range provShards {
			n += sh.Count
		}
		e.provPath = provPath
		e.provShards = provShards
		e.provCount = n
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

// ReadMeta reads just the meta header of an experiment directory,
// without touching event data. It accepts any readable format version.
func ReadMeta(dir string) (*Meta, error) {
	var m Meta
	if err := readGob(dir, metaFile, &m); err != nil {
		return nil, fmt.Errorf("experiment %s: reading meta: %w", dir, err)
	}
	if v := m.FormatVersion; v < oldestReadableVersion || v > FormatVersion {
		return nil, fmt.Errorf("experiment %s: format version %d, want %d..%d", dir, v, oldestReadableVersion, FormatVersion)
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
