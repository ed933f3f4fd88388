package experiment

// shard.go implements the sharded streams of format v2. Instead of one
// monolithic gob blob per data kind (format v1), records are appended
// in fixed-size shards — length-prefixed chunks, each carrying its own
// record count and cycle range in a binary header, each independently
// gob-decodable. Two kinds of stream share the layout and every line of
// code that reads or writes it: counter events (hwc0.ev2/hwc1.ev2, one
// file per PIC) and allocation-site provenance records (prov.pv2). The
// collector appends shards as records are produced (and flushes the
// partial tail shard on cancellation), and the analyzer's sharded
// reduction reads disjoint shards in parallel without ever
// materializing the whole stream.
//
// File layout:
//
//	magic (8 bytes): "dsprofe2" for counter events, "dsprofp2" for provenance
//	shard*:
//	  header (24 bytes, little-endian):
//	    uint32 payload length in bytes
//	    uint32 record count
//	    uint64 min cycle of the shard's records
//	    uint64 max cycle of the shard's records
//	  payload: a fresh gob stream encoding []HWCEvent or []machine.ProvRecord
//
// An event's cycle span is its delivery time; a provenance record's is
// its lifetime, Birth .. max(Birth, Death). The file ends at EOF after
// the last shard; a truncated tail (crash mid-append) is detected by
// the length prefix and reported as a typed loss, never a panic.

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"dsprof/internal/faultfs"
	"dsprof/internal/machine"
)

// Shard-file magics, one per kind.
const (
	shardMagic = "dsprofe2" // counter events
	provMagic  = "dsprofp2" // provenance records
)

// ProvFileName is the provenance shard file inside an experiment dir.
const ProvFileName = "prov.pv2"

// provPIC is the PIC label of provenance Shard descriptors; it only
// tells them apart from counter-event shards.
const provPIC = -1

// DefaultShardEvents is the fixed shard size: how many records one
// shard holds (the tail shard of a file may hold fewer). It balances
// decode granularity for the parallel reduction against per-shard
// header and gob-stream overhead.
const DefaultShardEvents = 4096

// shardHeaderBytes is the size of the binary per-shard header.
const shardHeaderBytes = 24

// maxShardPayload bounds a single shard's payload so a corrupted length
// prefix cannot drive a multi-gigabyte allocation.
const maxShardPayload = 1 << 28

// shardFile names one shard stream of an experiment directory: its
// file, the magic the file opens with, and the PIC label its Shard
// descriptors carry (the PIC, or provPIC).
type shardFile struct {
	name  string
	magic string
	pic   int
}

// shardKind is a shardFile plus the record type it holds and the cycle
// span of one record, which the shard header's min/max cover.
type shardKind[T any] struct {
	shardFile
	span func(T) (lo, hi uint64)
}

// hwcKinds are the counter-event streams, indexed by PIC.
var hwcKinds = [NumPICs]shardKind[HWCEvent]{
	{shardFile{"hwc0.ev2", shardMagic, 0}, eventSpan},
	{shardFile{"hwc1.ev2", shardMagic, 1}, eventSpan},
}

// provKind is the provenance stream.
var provKind = shardKind[machine.ProvRecord]{
	shardFile{ProvFileName, provMagic, provPIC},
	func(r machine.ProvRecord) (uint64, uint64) { return r.Birth, max(r.Birth, r.Death) },
}

func eventSpan(ev HWCEvent) (uint64, uint64) { return ev.Cycles, ev.Cycles }

// shardFiles lists every shard stream, in Save's order.
var shardFiles = []shardFile{hwcKinds[0].shardFile, hwcKinds[1].shardFile, provKind.shardFile}

// ShardFileName returns the name of the counter-event shard file for a
// PIC inside an experiment directory ("hwc0.ev2"/"hwc1.ev2") — for
// collectors that spool events straight into the output directory.
func ShardFileName(pic int) string { return hwcKinds[pic].name }

// Shard describes one chunk of a stream: its record count and cycle
// range (from the shard header), and where its payload lives. Shards
// are the unit of the analyzer's parallel reduction and of profd's
// per-shard memoization.
type Shard struct {
	PIC       int
	Index     int
	Count     int
	MinCycles uint64
	MaxCycles uint64

	offset int64 // payload offset in the shard file (0 for in-memory shards)
	length int64 // payload length in bytes (0 for in-memory shards)

	// Manifest-sourced payload checksum. When hasCRC is set, reads
	// verify the raw payload bytes against crc before decoding, so a
	// bit flip inside a shard is reported as a checksum mismatch rather
	// than a gob decode error (or worse, silently wrong records).
	crc    uint32
	hasCRC bool
}

// shardOf describes recs as shard i of kind k: count and cycle range.
func (k shardKind[T]) shardOf(i int, recs []T) Shard {
	sh := Shard{PIC: k.pic, Index: i, Count: len(recs)}
	sh.MinCycles, sh.MaxCycles = k.span(recs[0])
	for _, r := range recs[1:] {
		lo, hi := k.span(r)
		sh.MinCycles = min(sh.MinCycles, lo)
		sh.MaxCycles = max(sh.MaxCycles, hi)
	}
	return sh
}

// ShardWriter appends records to a shard file, flushing a shard every
// DefaultShardEvents records. It is the collector's sink: records
// stream to disk as they are produced, so collection memory does not
// grow with run length, and Flush writes the partial tail shard so a
// cancelled run still leaves a readable experiment.
type ShardWriter[T any] struct {
	f      faultfs.File
	kind   shardKind[T]
	limit  int
	buf    []T
	shards []Shard
	count  int
	off    int64
	err    error
}

// NewShardWriterFS creates (truncating) the counter-event shard file at
// path for the given PIC through a pluggable filesystem, the
// collector's spool seam for fault injection and crash-trace recording.
func NewShardWriterFS(fsys faultfs.FS, path string, pic int) (*ShardWriter[HWCEvent], error) {
	return newShardWriter(fsys, path, hwcKinds[pic])
}

// NewProvWriterFS creates (truncating) the provenance shard file at path
// through a pluggable filesystem.
func NewProvWriterFS(fsys faultfs.FS, path string) (*ShardWriter[machine.ProvRecord], error) {
	return newShardWriter(fsys, path, provKind)
}

func newShardWriter[T any](fsys faultfs.FS, path string, k shardKind[T]) (*ShardWriter[T], error) {
	f, err := faultfs.Or(fsys).Create(path)
	if err != nil {
		return nil, fmt.Errorf("experiment: shard file: %w", err)
	}
	if _, err := f.Write([]byte(k.magic)); err != nil {
		f.Close()
		return nil, fmt.Errorf("experiment: shard file: %w", err)
	}
	return &ShardWriter[T]{
		f:     f,
		kind:  k,
		limit: DefaultShardEvents,
		buf:   make([]T, 0, DefaultShardEvents),
		off:   int64(len(k.magic)),
	}, nil
}

// SetShardEvents overrides the shard size for subsequently flushed
// shards. The fault soak uses small shards so a short collect still
// crosses many shard boundaries; n <= 0 keeps the current size.
func (w *ShardWriter[T]) SetShardEvents(n int) {
	if n > 0 {
		w.limit = n
	}
}

// Append buffers one record, writing a full shard to disk whenever the
// fixed shard size is reached.
func (w *ShardWriter[T]) Append(rec T) error {
	if w.err != nil {
		return w.err
	}
	w.buf = append(w.buf, rec)
	if len(w.buf) >= w.limit {
		return w.Flush()
	}
	return nil
}

// Flush writes the buffered (possibly partial) shard. It is called on
// run completion and on cancellation, so interrupted collections keep
// every record delivered before the cut.
func (w *ShardWriter[T]) Flush() error {
	if w.err != nil {
		return w.err
	}
	if len(w.buf) == 0 {
		return nil
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(w.buf); err != nil {
		w.err = fmt.Errorf("experiment: encoding shard: %w", err)
		return w.err
	}
	sh := w.kind.shardOf(len(w.shards), w.buf)
	sh.offset = w.off + shardHeaderBytes
	sh.length = int64(payload.Len())
	var hdr [shardHeaderBytes]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(payload.Len()))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(sh.Count))
	binary.LittleEndian.PutUint64(hdr[8:], sh.MinCycles)
	binary.LittleEndian.PutUint64(hdr[16:], sh.MaxCycles)
	if _, err := w.f.Write(hdr[:]); err != nil {
		w.err = fmt.Errorf("experiment: writing shard header: %w", err)
		return w.err
	}
	if _, err := w.f.Write(payload.Bytes()); err != nil {
		w.err = fmt.Errorf("experiment: writing shard payload: %w", err)
		return w.err
	}
	w.shards = append(w.shards, sh)
	w.count += sh.Count
	w.off += shardHeaderBytes + int64(payload.Len())
	w.buf = w.buf[:0]
	return nil
}

// Close flushes the tail shard and closes the file.
func (w *ShardWriter[T]) Close() error {
	flushErr := w.Flush()
	closeErr := w.f.Close()
	if flushErr != nil {
		return flushErr
	}
	return closeErr
}

// Shards returns the shard table written so far.
func (w *ShardWriter[T]) Shards() []Shard { return w.shards }

// Count returns the number of records written (flushed) so far.
func (w *ShardWriter[T]) Count() int { return w.count }

// writeShards writes in-memory records as a shard file of kind k.
func writeShards[T any](fsys faultfs.FS, path string, k shardKind[T], recs []T) error {
	w, err := newShardWriter(fsys, path, k)
	if err != nil {
		return err
	}
	for _, r := range recs {
		if w.Append(r) != nil {
			break // the error is sticky; Close reports it
		}
	}
	return w.Close()
}

// scanShards is the one shard-header parser. It reads the headers of
// shard file sf at path, seeking over the payloads, and returns the
// longest structurally whole prefix plus a typed loss describing the
// cut: ErrTruncatedHeader for a short or implausible header (including
// a missing, short or wrong magic), ErrTornShard for a payload cut off
// mid-write. Losses are decided from the file's size and header bytes
// alone; a missing file is zero shards and no loss, and a failed open,
// stat, read or seek is err (with the prefix scanned before it), never
// a loss, so no caller mistakes an I/O failure for an empty or damaged
// stream. Readers that need the whole file (Open, BuildManifest) fail
// on any loss or err; Recover keeps the prefix. The prefix is
// structural only: checksums against the manifest are the caller's job.
func scanShards(path string, sf shardFile) (shards []Shard, loss, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	size := st.Size()
	magic := make([]byte, len(sf.magic))
	if size >= int64(len(magic)) {
		if _, err := io.ReadFull(f, magic); err != nil {
			return nil, nil, err
		}
	}
	if string(magic) != sf.magic {
		return nil, fmt.Errorf("%s: %w: bad or short magic", path, ErrTruncatedHeader), nil
	}
	off := int64(len(sf.magic))
	for off < size {
		if size-off < shardHeaderBytes {
			return shards, fmt.Errorf("%s: shard %d: %w: %d trailing bytes",
				path, len(shards), ErrTruncatedHeader, size-off), nil
		}
		var hdr [shardHeaderBytes]byte
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			return shards, nil, err
		}
		length := int64(binary.LittleEndian.Uint32(hdr[0:]))
		count := int(binary.LittleEndian.Uint32(hdr[4:]))
		if length <= 0 || length > maxShardPayload || count <= 0 {
			return shards, fmt.Errorf("%s: shard %d: %w: implausible header (len %d, count %d)",
				path, len(shards), ErrTruncatedHeader, length, count), nil
		}
		if size-off-shardHeaderBytes < length {
			return shards, fmt.Errorf("%s: shard %d: %w: payload %d bytes, %d on disk",
				path, len(shards), ErrTornShard, length, size-off-shardHeaderBytes), nil
		}
		sh := Shard{
			PIC:       sf.pic,
			Index:     len(shards),
			Count:     count,
			MinCycles: binary.LittleEndian.Uint64(hdr[8:]),
			MaxCycles: binary.LittleEndian.Uint64(hdr[16:]),
			offset:    off + shardHeaderBytes,
			length:    length,
		}
		if _, err := f.Seek(length, io.SeekCurrent); err != nil {
			return shards, nil, err
		}
		off = sh.offset + length
		shards = append(shards, sh)
	}
	return shards, nil, nil
}

// readShardFile decodes one shard's payload from a shard file, first
// verifying the payload checksum when the shard carries one (from the
// experiment manifest) and finally cross-checking the record count
// against the header. Decoding never panics even on corrupted payload
// bytes.
func readShardFile[T any](path string, sh Shard) (recs []T, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	defer func() {
		if r := recover(); r != nil {
			recs, err = nil, fmt.Errorf("corrupted %s: shard %d: %v", path, sh.Index, r)
		}
	}()
	var payload io.Reader = io.NewSectionReader(f, sh.offset, sh.length)
	if sh.hasCRC {
		raw := make([]byte, sh.length)
		if _, err := io.ReadFull(payload, raw); err != nil {
			return nil, fmt.Errorf("corrupted %s: shard %d: truncated payload", path, sh.Index)
		}
		if got := crc32.ChecksumIEEE(raw); got != sh.crc {
			return nil, fmt.Errorf("corrupted %s: shard %d: %w (crc %08x, manifest says %08x)",
				path, sh.Index, ErrChecksumMismatch, got, sh.crc)
		}
		payload = bytes.NewReader(raw)
	}
	if err := gob.NewDecoder(payload).Decode(&recs); err != nil {
		return nil, fmt.Errorf("corrupted %s: shard %d: %w", path, sh.Index, err)
	}
	if len(recs) != sh.Count {
		return nil, fmt.Errorf("corrupted %s: shard %d: %d records, header says %d",
			path, sh.Index, len(recs), sh.Count)
	}
	return recs, nil
}

// syntheticShards slices an in-memory stream into fixed-size shard
// descriptors, so experiments that never touched disk (or were loaded
// eagerly) expose the same sharded view the parallel reduction
// consumes.
func syntheticShards[T any](k shardKind[T], recs []T) []Shard {
	var shards []Shard
	for lo := 0; lo < len(recs); lo += DefaultShardEvents {
		hi := min(lo+DefaultShardEvents, len(recs))
		shards = append(shards, k.shardOf(len(shards), recs[lo:hi]))
	}
	return shards
}
