package experiment

// transfer.go is the experiment replication framing: a streamable,
// self-checking archive of one experiment directory, used by the profd
// cluster to ship collected experiments from worker nodes to the
// coordinator. The framing is deliberately minimal — no compression, no
// metadata beyond what the directory already carries — because the
// integrity story rides on the PR 5 manifest: the archive carries
// manifest.json last, and the receiver re-verifies every manifest CRC32
// against the bytes it just wrote before the experiment is admitted
// anywhere (VerifyDir). A bit flipped in transit, a truncated stream, or
// a worker shipping a directory that never finished saving all fail
// loudly at the receiver.
//
// Stream layout:
//
//	magic "dsprofx1" (8 bytes)
//	file*:
//	  uvarint name length (0 terminates the archive)
//	  name bytes (base name only; no separators)
//	  uvarint payload length
//	  payload bytes
//	  uint32 little-endian CRC32 (IEEE) of the payload
//	terminator: uvarint 0, then uint32 CRC32 of all preceding bytes
//	  (whole-stream checksum, so a cleanly cut stream cannot pass as a
//	  short-but-valid archive)

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"dsprof/internal/faultfs"
)

// archiveMagic begins every experiment archive stream.
const archiveMagic = "dsprofx1"

// maxArchiveFile bounds one archived file so a corrupted length prefix
// cannot drive an unbounded allocation at the receiver.
const maxArchiveFile = 1 << 31

// ErrArchiveCorrupt wraps any structural or checksum failure while
// reading an experiment archive.
var ErrArchiveCorrupt = fmt.Errorf("experiment archive corrupted")

// hashingReader hashes exactly the bytes its consumer reads. It also
// implements io.ByteReader so binary.ReadUvarint does not wrap it in
// another read-ahead buffer.
type hashingReader struct {
	r *bufio.Reader
	h io.Writer
}

func (hr *hashingReader) Read(p []byte) (int, error) {
	n, err := hr.r.Read(p)
	if n > 0 {
		hr.h.Write(p[:n])
	}
	return n, err
}

func (hr *hashingReader) ReadByte() (byte, error) {
	b, err := hr.r.ReadByte()
	if err == nil {
		hr.h.Write([]byte{b})
	}
	return b, err
}

// WriteArchive streams the experiment directory dir as a framed,
// checksummed archive. Files are written in sorted order with
// manifest.json forced last — mirroring Save's write order, so a
// receiver that unpacks sequentially holds the manifest only once every
// file it certifies is already on disk. Temp droppings (*.tmp) are
// skipped; subdirectories are rejected (experiment directories are
// flat).
func WriteArchive(w io.Writer, dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("experiment archive: %w", err)
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			continue
		}
		if e.IsDir() {
			return fmt.Errorf("experiment archive: %s: unexpected subdirectory %q", dir, name)
		}
		names = append(names, name)
	}
	sort.Strings(names)
	// manifest.json last: its arrival certifies the rest.
	for i, name := range names {
		if name == ManifestName {
			names = append(append(names[:i:i], names[i+1:]...), ManifestName)
			break
		}
	}

	whole := crc32.NewIEEE()
	bw := bufio.NewWriter(io.MultiWriter(w, whole))
	if _, err := bw.WriteString(archiveMagic); err != nil {
		return err
	}
	var scratch [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		_, err := bw.Write(scratch[:n])
		return err
	}
	for _, name := range names {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			return fmt.Errorf("experiment archive: %w", err)
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return fmt.Errorf("experiment archive: %w", err)
		}
		if err := putUvarint(uint64(len(name))); err != nil {
			f.Close()
			return err
		}
		if _, err := bw.WriteString(name); err != nil {
			f.Close()
			return err
		}
		if err := putUvarint(uint64(st.Size())); err != nil {
			f.Close()
			return err
		}
		h := crc32.NewIEEE()
		n, err := io.Copy(io.MultiWriter(bw, h), f)
		f.Close()
		if err != nil {
			return fmt.Errorf("experiment archive: %s: %w", name, err)
		}
		if n != st.Size() {
			return fmt.Errorf("experiment archive: %s: file changed while archiving (%d of %d bytes)", name, n, st.Size())
		}
		var sum [4]byte
		binary.LittleEndian.PutUint32(sum[:], h.Sum32())
		if _, err := bw.Write(sum[:]); err != nil {
			return err
		}
	}
	if err := putUvarint(0); err != nil {
		return err
	}
	// The whole-stream checksum covers everything up to and including
	// the terminator, so it must be flushed into the hash first.
	if err := bw.Flush(); err != nil {
		return err
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], whole.Sum32())
	_, err = w.Write(sum[:])
	return err
}

// ReadArchive unpacks an experiment archive stream into dir (created if
// needed) through fsys, verifying each file's frame checksum and the
// whole-stream checksum. It does NOT admit the experiment: callers must
// follow with VerifyDir (and typically Open) before trusting the
// contents — ReadArchive guarantees the bytes match what the sender
// framed, VerifyDir guarantees they form a manifest-certified
// experiment.
func ReadArchive(fsys faultfs.FS, r io.Reader, dir string) error {
	fsys = faultfs.Or(fsys)
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("experiment archive: %w", err)
	}
	// Hash above the buffer, not below it: a TeeReader under bufio would
	// hash read-ahead bytes (including the trailer) that the frame
	// parser never consumed.
	whole := crc32.NewIEEE()
	raw := bufio.NewReader(r)
	br := &hashingReader{r: raw, h: whole}
	var magic [len(archiveMagic)]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil || string(magic[:]) != archiveMagic {
		return fmt.Errorf("%w: bad magic", ErrArchiveCorrupt)
	}
	for {
		nameLen, err := binary.ReadUvarint(br)
		if err != nil {
			return fmt.Errorf("%w: truncated frame header", ErrArchiveCorrupt)
		}
		if nameLen == 0 {
			break
		}
		if nameLen > 255 {
			return fmt.Errorf("%w: implausible name length %d", ErrArchiveCorrupt, nameLen)
		}
		nameBuf := make([]byte, nameLen)
		if _, err := io.ReadFull(br, nameBuf); err != nil {
			return fmt.Errorf("%w: truncated name", ErrArchiveCorrupt)
		}
		name := string(nameBuf)
		// The archive carries base names only; anything that resolves
		// outside dir is an attack or corruption either way.
		if name != filepath.Base(name) || name == "." || name == ".." || strings.ContainsAny(name, "/\\") {
			return fmt.Errorf("%w: unsafe file name %q", ErrArchiveCorrupt, name)
		}
		size, err := binary.ReadUvarint(br)
		if err != nil {
			return fmt.Errorf("%w: %s: truncated size", ErrArchiveCorrupt, name)
		}
		if size > maxArchiveFile {
			return fmt.Errorf("%w: %s: implausible size %d", ErrArchiveCorrupt, name, size)
		}
		f, err := fsys.Create(filepath.Join(dir, name))
		if err != nil {
			return fmt.Errorf("experiment archive: %s: %w", name, err)
		}
		h := crc32.NewIEEE()
		_, cerr := io.CopyN(io.MultiWriter(f, h), br, int64(size))
		closeErr := f.Close()
		if cerr != nil {
			return fmt.Errorf("%w: %s: truncated payload", ErrArchiveCorrupt, name)
		}
		if closeErr != nil {
			return fmt.Errorf("experiment archive: %s: %w", name, closeErr)
		}
		var sum [4]byte
		if _, err := io.ReadFull(br, sum[:]); err != nil {
			return fmt.Errorf("%w: %s: truncated checksum", ErrArchiveCorrupt, name)
		}
		if got, want := h.Sum32(), binary.LittleEndian.Uint32(sum[:]); got != want {
			return fmt.Errorf("%w: %s: payload crc %08x, frame says %08x", ErrArchiveCorrupt, name, got, want)
		}
	}
	// Whole-stream checksum: the trailer itself is not covered, so read
	// it from the raw buffered reader, bypassing the hash.
	wholeSum := whole.Sum32()
	var sum [4]byte
	if _, err := io.ReadFull(raw, sum[:]); err != nil {
		return fmt.Errorf("%w: truncated stream checksum", ErrArchiveCorrupt)
	}
	if want := binary.LittleEndian.Uint32(sum[:]); wholeSum != want {
		return fmt.Errorf("%w: stream crc %08x, trailer says %08x", ErrArchiveCorrupt, wholeSum, want)
	}
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("experiment archive: %w", err)
	}
	return nil
}

// VerifyDir checks an experiment directory against its own manifest:
// every manifest-covered file's size and CRC32, and every shard's
// payload size and CRC32, must match what is on disk. This is the
// admission gate of the replication protocol — a replica only enters a
// store after VerifyDir passes, which makes "the coordinator's copy"
// and "the worker's copy" the same bytes by construction. A missing
// manifest is an error here (wrapping ErrMissingManifest): replication
// only ships manifest-certified experiments.
func VerifyDir(dir string) error {
	m, err := ReadManifest(dir)
	if err != nil {
		return err
	}
	got, err := BuildManifest(dir)
	if err != nil {
		return fmt.Errorf("experiment %s: verify: %w", dir, err)
	}
	for name, want := range m.Files {
		g, ok := got.Files[name]
		if !ok {
			return fmt.Errorf("experiment %s: verify: %s missing", dir, name)
		}
		if g != want {
			return fmt.Errorf("experiment %s: verify: %s: %d bytes crc %08x, manifest says %d bytes crc %08x",
				dir, name, g.Bytes, g.CRC32, want.Bytes, want.CRC32)
		}
	}
	for name := range got.Files {
		if _, ok := m.Files[name]; !ok {
			return fmt.Errorf("experiment %s: verify: %s not covered by manifest", dir, name)
		}
	}
	for _, sf := range shardFiles {
		if err := verifySums(sf.name, *got.sums(sf.pic), *m.sums(sf.pic)); err != nil {
			return fmt.Errorf("experiment %s: verify: %w", dir, err)
		}
	}
	return nil
}

// verifySums checks one shard file's sums as found on disk against the
// manifest's.
func verifySums(name string, got, want []ShardSum) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s has %d shards, manifest says %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("%s shard %d does not match manifest", name, i)
		}
	}
	return nil
}
