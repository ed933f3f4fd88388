package experiment

// recover.go salvages crash-damaged experiment directories. The write
// path makes exactly one promise (see Save): every data file is either
// complete or detectably partial, and the manifest — written last —
// certifies completeness and carries per-shard checksums. Recover holds
// the read side of that promise: given a directory left behind by a
// crash (mid-collect, mid-Save, or mid-commit), it keeps the longest
// prefix of each shard stream — both PICs' counter events and the
// provenance records, through one salvage routine — that is
// structurally whole, decodable, and checksum-clean, drops everything
// after the first damage, rewrites the directory so Load succeeds, and
// reports exactly what was lost with a typed error per loss.
//
// The floor for recovery is a readable meta header and program object:
// without the armed-counter specs and the profiled program no report can
// be built, so such directories are ErrUnrecoverable. Everything else —
// clock data, allocation data, the manifest, any suffix of the event
// stream — degrades gracefully.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"dsprof/internal/faultfs"
)

// Typed recovery losses. Each Loss.Err in a RecoveryReport wraps one of
// these (or carries a descriptive validation error); errors.Is selects
// the category.
var (
	// ErrTruncatedHeader: a shard file ends inside a shard header (or
	// its magic), or the header bytes are implausible.
	ErrTruncatedHeader = errors.New("truncated shard header")
	// ErrTornShard: a shard's payload is cut off mid-write, or its gob
	// stream does not decode.
	ErrTornShard = errors.New("torn shard write")
	// ErrChecksumMismatch: a shard's payload bytes disagree with the
	// manifest checksum.
	ErrChecksumMismatch = errors.New("shard checksum mismatch")
	// ErrMissingManifest: the directory has no manifest.json, so shards
	// could only be validated structurally, not against checksums.
	ErrMissingManifest = errors.New("missing manifest")
	// ErrUnrecoverable: the meta header or program object is unreadable;
	// no report can be built from what remains.
	ErrUnrecoverable = errors.New("experiment unrecoverable")
)

// Loss records one thing recovery could not keep.
type Loss struct {
	File string // file the loss occurred in
	Err  error  // wraps a typed recovery error
}

// RecoveryReport says what Recover kept and what it lost.
type RecoveryReport struct {
	Dir        string
	Losses     []Loss
	ShardsKept [NumPICs]int
	ShardsLost [NumPICs]int // -1 when unknowable (no manifest and no structural evidence)
	EventsKept [NumPICs]int
	EventsLost [NumPICs]int // -1 when unknowable without a manifest
	// Provenance salvage, same semantics as the per-PIC fields.
	ProvShardsKept int
	ProvShardsLost int // -1 when unknowable
	ProvKept       int
	ProvLost       int // -1 when unknowable without a manifest
	ClockLost      bool
	AllocsLost     bool
	Clean          bool // nothing was wrong; the directory was left untouched
}

// Degraded reports whether anything was lost.
func (r *RecoveryReport) Degraded() bool { return len(r.Losses) > 0 }

// Summary renders the report's one-line degradation note — what Meta.
// Degraded is set to and what report headers warn with.
func (r *RecoveryReport) Summary() string {
	if !r.Degraded() {
		return ""
	}
	var parts []string
	for pic := 0; pic < NumPICs; pic++ {
		parts = appendLoss(parts, fmt.Sprintf("pic%d", pic), "event",
			r.ShardsKept[pic], r.ShardsLost[pic], r.EventsLost[pic])
	}
	parts = appendLoss(parts, "provenance", "record", r.ProvShardsKept, r.ProvShardsLost, r.ProvLost)
	if r.ClockLost {
		parts = append(parts, "clock data lost")
	}
	if r.AllocsLost {
		parts = append(parts, "alloc data lost")
	}
	for _, l := range r.Losses {
		if errors.Is(l.Err, ErrMissingManifest) {
			parts = append(parts, "manifest missing (shards unverified)")
			break
		}
	}
	if len(parts) == 0 {
		parts = append(parts, "recovered after interrupted write")
	}
	return "recovered: " + strings.Join(parts, "; ")
}

// appendLoss appends one stream's loss note to parts, if it lost
// anything; unit names its records ("event", "record").
func appendLoss(parts []string, name, unit string, shardsKept, shardsLost, lost int) []string {
	switch {
	case shardsLost == 0 && lost == 0:
		return parts
	case lost >= 0:
		return append(parts, fmt.Sprintf("%s lost %d shards (%d %ss)", name, shardsLost, lost, unit))
	case shardsLost >= 0:
		return append(parts, fmt.Sprintf("%s lost %d shards (%s count unknown)", name, shardsLost, unit))
	}
	return append(parts, fmt.Sprintf("%s lost an unknown tail after shard %d", name, shardsKept-1))
}

// addLoss records err as a loss in file; a nil err is no loss.
func (r *RecoveryReport) addLoss(file string, err error) {
	if err != nil {
		r.Losses = append(r.Losses, Loss{File: file, Err: err})
	}
}

// ProvisionalExitStatus marks a meta header written before its run
// completed. A spooled collect writes such a header (plus the program
// object) into the spool directory up front, so a crash at any point
// mid-run leaves a directory Recover can salvage: the spooled shard
// prefix becomes a degraded but analyzable experiment instead of an
// undiagnosable pile of files.
const ProvisionalExitStatus = "in progress"

// WriteProvisional writes the recovery floor into dir before a spooled
// run starts: the meta header (ExitStatus forced to
// ProvisionalExitStatus) and the program object. Save later overwrites
// both with their final contents.
func (e *Experiment) WriteProvisional(fsys faultfs.FS, dir string) error {
	fsys = faultfs.Or(fsys)
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	meta := e.Meta
	meta.FormatVersion = FormatVersion
	meta.ExitStatus = ProvisionalExitStatus
	if err := writeGob(fsys, dir, metaFile, &meta); err != nil {
		return err
	}
	return e.writeProgram(fsys, dir)
}

// Recover salvages dir in place: it validates every file against the
// manifest, keeps the longest clean shard prefix per PIC, rewrites the
// directory (marking Meta.Degraded when anything was lost) so Load
// succeeds, and returns a report of exactly what was kept and lost. An
// intact directory is reported Clean and not rewritten. Only a
// directory without a readable meta header and program object fails,
// with an error wrapping ErrUnrecoverable.
func Recover(dir string) (*RecoveryReport, error) {
	return RecoverFS(faultfs.OS, dir)
}

// RecoverFS is Recover through a pluggable filesystem (reads stay on the
// real filesystem; only the repair writes go through fsys).
func RecoverFS(fsys faultfs.FS, dir string) (*RecoveryReport, error) {
	fsys = faultfs.Or(fsys)
	st, err := os.Stat(dir)
	if err != nil {
		return nil, fmt.Errorf("experiment %s: %w", dir, err)
	}
	if !st.IsDir() {
		return nil, fmt.Errorf("experiment %s: not a directory", dir)
	}
	rep := &RecoveryReport{Dir: dir}

	// Sweep temp files stranded between write and rename.
	strays, _ := filepath.Glob(filepath.Join(dir, "*.tmp"))
	for _, s := range strays {
		fsys.Remove(s)
	}
	dirty := len(strays) > 0

	// The recovery floor: header and program.
	e := &Experiment{}
	if err := readGob(dir, metaFile, &e.Meta); err != nil {
		return nil, fmt.Errorf("experiment %s: %w: reading meta: %v", dir, ErrUnrecoverable, err)
	}
	if v := e.Meta.FormatVersion; v != FormatVersion {
		return nil, fmt.Errorf("experiment %s: %w: format version %d, want %d",
			dir, ErrUnrecoverable, v, FormatVersion)
	}
	if n := len(e.Meta.Counters); n != NumPICs {
		return nil, fmt.Errorf("experiment %s: %w: corrupted meta: %d counter slots, want %d",
			dir, ErrUnrecoverable, n, NumPICs)
	}
	prog, err := loadProgram(filepath.Join(dir, progFile))
	if err != nil {
		return nil, fmt.Errorf("experiment %s: %w: reading program: %v", dir, ErrUnrecoverable, err)
	}
	e.Prog = prog

	// Small side files degrade to empty.
	if err := readGob(dir, clockFile, &e.Clock); err != nil {
		rep.addLoss(clockFile, fmt.Errorf("%w (clock data dropped)", ErrTornShard))
		e.Clock, rep.ClockLost = nil, true
	}
	if err := readGob(dir, allocsFile, &e.Allocs); err != nil {
		rep.addLoss(allocsFile, fmt.Errorf("%w (alloc data dropped)", ErrTornShard))
		e.Allocs, rep.AllocsLost = nil, true
	}

	man, err := ReadManifest(dir)
	if err != nil {
		man = nil
		rep.addLoss(ManifestName, err)
	}

	for pic := range e.HWC {
		check := func(evs []HWCEvent) error { return validateEvents(pic, evs, e.Meta.Counters) }
		var loss error
		e.HWC[pic], rep.ShardsKept[pic], rep.ShardsLost[pic], rep.EventsLost[pic], loss =
			salvage(dir, hwcKinds[pic], man, check)
		rep.EventsKept[pic] = len(e.HWC[pic])
		rep.addLoss(ShardFileName(pic), loss)
	}
	var loss error
	e.Prov, rep.ProvShardsKept, rep.ProvShardsLost, rep.ProvLost, loss = salvage(dir, provKind, man, nil)
	rep.ProvKept = len(e.Prov)
	rep.addLoss(ProvFileName, loss)

	if !dirty && !rep.Degraded() {
		rep.Clean = true
		return rep, nil
	}
	if rep.Degraded() {
		e.Meta.Degraded = rep.Summary()
	}
	if e.Meta.ExitStatus == "" {
		e.Meta.ExitStatus = "unknown (recovered)"
	}
	if err := e.SaveFS(fsys, dir); err != nil {
		return rep, fmt.Errorf("experiment %s: rewriting recovered experiment: %w", dir, err)
	}
	return rep, nil
}

// salvage keeps the longest prefix of stream k's shards that is
// structurally whole, checksum-clean against the manifest (when one
// exists), gob-decodable, and accepted by check (nil accepts all). It
// returns the kept records, the number of shards kept, the shards and
// records known lost (-1 when unknowable), and the typed loss that cut
// the prefix (nil if nothing was cut).
func salvage[T any](dir string, k shardKind[T], man *Manifest, check func([]T) error) (kept []T, shardsKept, shardsLost, recsLost int, loss error) {
	path := filepath.Join(dir, k.name)
	shards, loss, err := scanShards(path, k.shardFile)
	if err != nil {
		// An unreadable file keeps only the prefix scanned before the
		// failed read.
		loss = fmt.Errorf("%s: %w: %v", path, ErrTornShard, err)
	}

	// Checksum-validate the structural prefix against the manifest; the
	// first mismatch cuts the prefix there.
	var sums []ShardSum
	if man != nil {
		sums = *man.sums(k.pic)
		for i := range shards {
			if i >= len(sums) {
				// More shards on disk than the manifest certifies (a
				// stale manifest from an interrupted re-Save): the
				// uncertified tail cannot be trusted.
				shards = shards[:i]
				loss = fmt.Errorf("%s: shard %d: %w: shard not in manifest", path, i, ErrChecksumMismatch)
				break
			}
			if shards[i].length != sums[i].Bytes || shards[i].Count != sums[i].Count {
				shards = shards[:i]
				loss = fmt.Errorf("%s: shard %d: %w: size/count disagree with manifest", path, i, ErrChecksumMismatch)
				break
			}
			shards[i].crc = sums[i].CRC32
			shards[i].hasCRC = true
		}
		// A file cut exactly at a shard boundary scans clean but is
		// still short of what the manifest certifies.
		if loss == nil && len(shards) < len(sums) {
			loss = fmt.Errorf("%s: %w: %d shards on disk, manifest certifies %d",
				path, ErrTornShard, len(shards), len(sums))
		}
	}

	// Decode the prefix; read-level verification (checksum, gob,
	// header/record count agreement) and check can still cut it further.
	for i, sh := range shards {
		recs, err := readShardFile[T](path, sh)
		if err == nil && check != nil {
			err = check(recs)
		}
		if err != nil {
			if !errors.Is(err, ErrChecksumMismatch) {
				err = fmt.Errorf("%w: %v", ErrTornShard, err)
			}
			shards = shards[:i]
			loss = err
			break
		}
		kept = append(kept, recs...)
	}

	if loss == nil {
		return kept, len(shards), 0, 0, nil
	}
	// Quantify the cut. With a manifest the exact record deficit is
	// known; without one, the tail length is unknowable.
	if sums == nil {
		return kept, len(shards), -1, -1, loss
	}
	for _, s := range sums[len(shards):] {
		recsLost += s.Count
	}
	return kept, len(shards), len(sums) - len(shards), recsLost, loss
}
