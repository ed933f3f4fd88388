package experiment

// manifest.go implements the per-experiment integrity manifest. Save
// writes manifest.json as the last file of an experiment directory — so
// its presence certifies that every other file was completely written —
// recording each data file's size and CRC32 and, for each shard stream
// (hwc0.ev2, hwc1.ev2, prov.pv2), each shard's record count, payload
// size, and payload CRC32. The shard files carry no checksums of their
// own; these are the only ones. Open attaches them so every shard read
// verifies its payload; Recover compares the damaged directory against
// the manifest to salvage the longest validated prefix of each stream
// and report exactly what was lost.

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"dsprof/internal/faultfs"
)

// ManifestName is the integrity manifest's file name inside an
// experiment directory.
const ManifestName = "manifest.json"

// FileSum is one data file's manifest entry.
type FileSum struct {
	Bytes int64  `json:"bytes"`
	CRC32 uint32 `json:"crc32"`
}

// ShardSum is one shard's manifest entry; the checksum covers the
// shard's gob payload (not its binary header).
type ShardSum struct {
	Count int    `json:"count"`
	Bytes int64  `json:"bytes"`
	CRC32 uint32 `json:"crc32"`
}

// Manifest is the decoded manifest.json.
type Manifest struct {
	FormatVersion int                 `json:"format_version"`
	Files         map[string]FileSum  `json:"files"`
	Shards        [NumPICs][]ShardSum `json:"shards"`
	// Prov covers the provenance shard file (prov.pv2) when the
	// experiment carries one; omitted otherwise, so provenance-free
	// manifests are byte-identical to the pre-provenance format.
	Prov []ShardSum `json:"prov,omitempty"`
}

// manifestDataFiles are the experiment files the manifest covers, beyond
// the shard files (covered per shard). program.obj is deliberately
// absent: gob encodes its debug-table maps in random iteration order, so
// its bytes differ between two saves of the same program and a checksum
// would make otherwise-identical experiment directories diverge. Its
// integrity is enforced by the decode validation every load performs
// instead.
var manifestDataFiles = []string{logFile, metaFile, clockFile, allocsFile}

// fileSum computes one file's manifest entry.
func fileSum(path string) (FileSum, error) {
	f, err := os.Open(path)
	if err != nil {
		return FileSum{}, err
	}
	defer f.Close()
	h := crc32.NewIEEE()
	n, err := io.Copy(h, f)
	if err != nil {
		return FileSum{}, err
	}
	return FileSum{Bytes: n, CRC32: h.Sum32()}, nil
}

// BuildManifest scans an experiment directory and computes its manifest
// from what is actually on disk. Absent optional files simply have no
// entry; a structurally damaged shard file is an error (the manifest
// certifies intact experiments only).
func BuildManifest(dir string) (*Manifest, error) {
	m := &Manifest{FormatVersion: FormatVersion, Files: make(map[string]FileSum)}
	for _, name := range manifestDataFiles {
		sum, err := fileSum(filepath.Join(dir, name))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("experiment: manifest: %s: %w", name, err)
		}
		m.Files[name] = sum
	}
	for _, sf := range shardFiles {
		if err := m.addStream(dir, sf); err != nil {
			return nil, fmt.Errorf("experiment: manifest: %w", err)
		}
	}
	return m, nil
}

// sums returns the manifest's shard sums for the stream whose shards
// carry the PIC label pic.
func (m *Manifest) sums(pic int) *[]ShardSum {
	if pic == provPIC {
		return &m.Prov
	}
	return &m.Shards[pic]
}

// addStream certifies shard file sf: the whole file's sum and each
// shard's count, payload size and payload CRC32. A missing or
// shard-less file has no entry.
func (m *Manifest) addStream(dir string, sf shardFile) error {
	path := filepath.Join(dir, sf.name)
	shards, loss, err := scanShards(path, sf)
	if err != nil {
		return err
	}
	if loss != nil {
		return fmt.Errorf("corrupted %w", loss)
	}
	if len(shards) == 0 {
		return nil
	}
	if m.Files[sf.name], err = fileSum(path); err != nil {
		return fmt.Errorf("%s: %w", sf.name, err)
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sums := m.sums(sf.pic)
	for _, sh := range shards {
		h := crc32.NewIEEE()
		if _, err := io.Copy(h, io.NewSectionReader(f, sh.offset, sh.length)); err != nil {
			return fmt.Errorf("%s shard %d: %w", sf.name, sh.Index, err)
		}
		*sums = append(*sums, ShardSum{Count: sh.Count, Bytes: sh.length, CRC32: h.Sum32()})
	}
	return nil
}

// WriteManifest computes and atomically writes dir's manifest — the
// final step of Save, after which the directory is certified complete.
func WriteManifest(fsys faultfs.FS, dir string) error {
	m, err := BuildManifest(dir)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(fsys, dir, ManifestName, append(data, '\n'))
}

// ReadManifest reads dir's manifest.json. A missing manifest returns
// ErrMissingManifest (wrapped); experiments written before the manifest
// existed, or cut down by a crash before Save's final step, have none.
func ReadManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if os.IsNotExist(err) {
		return nil, fmt.Errorf("experiment %s: %w", dir, ErrMissingManifest)
	}
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("experiment %s: corrupted %s: %w", dir, ManifestName, err)
	}
	return &m, nil
}

// attachManifest sets the payload checksum on every shard the manifest
// covers, so shard reads verify payload integrity. Shards beyond the
// manifest (or the whole experiment, when no manifest exists) stay
// unverified rather than failing: the manifest hardens reads, it is not
// required for them.
func (e *Experiment) attachManifest(m *Manifest) {
	for _, sf := range shardFiles {
		e.stream(sf.pic).attach(*m.sums(sf.pic))
	}
}

// attach sets each shard's checksum from the sum at its index, when the
// sum's payload size agrees.
func (st *stream) attach(sums []ShardSum) {
	for i := range st.shards {
		if i < len(sums) && st.shards[i].length == sums[i].Bytes {
			st.shards[i].crc = sums[i].CRC32
			st.shards[i].hasCRC = true
		}
	}
}
