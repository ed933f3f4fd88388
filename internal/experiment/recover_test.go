package experiment

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dsprof/internal/machine"
)

// multiShardSample returns a sample experiment with enough PIC-0 events
// and provenance records for exactly four shards each (three full, one
// 17-record tail).
func multiShardSample() *Experiment {
	e := sample()
	e.HWC[0] = nil
	for i := 0; i < 3*DefaultShardEvents+17; i++ {
		e.HWC[0] = append(e.HWC[0], HWCEvent{
			PIC: 0, DeliveredPC: machine.TextBase + 4, CandidatePC: machine.TextBase,
			EA: 0x40000000 + uint64(i), HasEA: true, Cycles: uint64(i) * 3,
		})
		e.Prov = append(e.Prov, machine.ProvRecord{
			Site: machine.TextBase, Addr: 0x40000000 + 16*uint64(i), Size: 16, Seq: i,
			Birth: uint64(i) * 3, Death: uint64(i)*3 + 1, Freed: i%2 == 0,
		})
	}
	return e
}

// shardOffsets computes, from a stream's manifest sums, the file offset
// where each shard's header begins (and, one past the end, where the
// file ends): offsets[k] = 8-byte magic + preceding (24-byte header +
// payload) records.
func shardOffsets(t *testing.T, sums []ShardSum) []int64 {
	t.Helper()
	offs := []int64{8}
	for _, s := range sums {
		offs = append(offs, offs[len(offs)-1]+24+s.Bytes)
	}
	return offs
}

func truncateAt(t *testing.T, path string, n int64) {
	t.Helper()
	if err := os.Truncate(path, n); err != nil {
		t.Fatal(err)
	}
}

func flipByteAt(t *testing.T, path string, off int64) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[off] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverTable drives Recover over every damage category the fault
// model defines, on the PIC-0 event stream and on the provenance
// stream. Each case must salvage exactly the validated shard prefix,
// report the loss with the right typed error and summary note, and
// leave a directory that loads with the prefix's records intact.
func TestRecoverTable(t *testing.T) {
	streams := []struct {
		file string
		pic  int    // the stream's PIC label, which selects its manifest sums
		note string // the stream's name in the degradation note
		unit string
		// report returns what the recovery report says the stream kept
		// and lost: shards kept, records kept, records lost.
		report func(*RecoveryReport) (int, int, int)
		// records returns the stream's records.
		records func(*Experiment) any
	}{
		{ShardFileName(0), 0, "pic0", "events",
			func(r *RecoveryReport) (int, int, int) { return r.ShardsKept[0], r.EventsKept[0], r.EventsLost[0] },
			func(e *Experiment) any { return e.HWC[0] }},
		{ProvFileName, provPIC, "provenance", "records",
			func(r *RecoveryReport) (int, int, int) { return r.ProvShardsKept, r.ProvKept, r.ProvLost },
			func(e *Experiment) any { return e.Prov }},
	}
	cases := []struct {
		name string
		// corrupt damages the saved directory; path is the stream's
		// file, pic its PIC label, offs the shard-boundary offsets from
		// the intact manifest.
		corrupt    func(t *testing.T, dir, path string, pic int, offs []int64)
		wantErr    error                  // typed error the stream's (or manifest) loss must wrap
		keptShards int                    // shards salvaged (4 = all)
		lostEvents func(counts []int) int // -1 = unknowable
	}{
		{
			name: "truncated header",
			corrupt: func(t *testing.T, dir, path string, pic int, offs []int64) {
				// Cut inside shard 2's 24-byte header.
				truncateAt(t, path, offs[2]+9)
			},
			wantErr:    ErrTruncatedHeader,
			keptShards: 2,
			lostEvents: func(c []int) int { return c[2] + c[3] },
		},
		{
			name: "torn mid-shard write",
			corrupt: func(t *testing.T, dir, path string, pic int, offs []int64) {
				// Cut midway through shard 1's payload.
				truncateAt(t, path, offs[1]+24+(offs[2]-offs[1]-24)/2)
			},
			wantErr:    ErrTornShard,
			keptShards: 1,
			lostEvents: func(c []int) int { return c[1] + c[2] + c[3] },
		},
		{
			name: "truncated at shard boundary",
			corrupt: func(t *testing.T, dir, path string, pic int, offs []int64) {
				// The file scans structurally clean at 3 shards; only the
				// manifest knows a 4th was certified.
				truncateAt(t, path, offs[3])
			},
			wantErr:    ErrTornShard,
			keptShards: 3,
			lostEvents: func(c []int) int { return c[3] },
		},
		{
			name: "missing manifest",
			corrupt: func(t *testing.T, dir, path string, pic int, offs []int64) {
				if err := os.Remove(filepath.Join(dir, ManifestName)); err != nil {
					t.Fatal(err)
				}
			},
			wantErr:    ErrMissingManifest,
			keptShards: 4,
			lostEvents: func(c []int) int { return 0 },
		},
		{
			name: "checksum mismatch",
			corrupt: func(t *testing.T, dir, path string, pic int, offs []int64) {
				// Flip one payload byte in shard 2: structure stays whole,
				// only the manifest checksum can catch it.
				flipByteAt(t, path, offs[2]+24+5)
			},
			wantErr:    ErrChecksumMismatch,
			keptShards: 2,
			lostEvents: func(c []int) int { return c[2] + c[3] },
		},
		{
			name: "stale manifest certifies fewer shards",
			corrupt: func(t *testing.T, dir, path string, pic int, offs []int64) {
				// A manifest from before a re-Save appended shards: the
				// uncertified tail cannot be trusted.
				man, err := ReadManifest(dir)
				if err != nil {
					t.Fatal(err)
				}
				sums := man.sums(pic)
				*sums = (*sums)[:2]
				if err := writeManifestRaw(dir, man); err != nil {
					t.Fatal(err)
				}
			},
			wantErr:    ErrChecksumMismatch,
			keptShards: 2,
			// The uncertified tail never counted as validated data, so
			// zero *validated* events are reported lost.
			lostEvents: func(c []int) int { return 0 },
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, st := range streams {
				t.Run(st.file, func(t *testing.T) {
					e := multiShardSample()
					dir := filepath.Join(t.TempDir(), "s.er")
					if err := e.Save(dir); err != nil {
						t.Fatal(err)
					}
					man, err := ReadManifest(dir)
					if err != nil {
						t.Fatal(err)
					}
					sums := *man.sums(st.pic)
					counts := make([]int, len(sums))
					for i, s := range sums {
						counts[i] = s.Count
					}
					path := filepath.Join(dir, st.file)
					tc.corrupt(t, dir, path, st.pic, shardOffsets(t, sums))

					rep, err := Recover(dir)
					if err != nil {
						t.Fatalf("Recover: %v", err)
					}
					if rep.Clean {
						t.Fatal("damaged directory reported Clean")
					}
					var match bool
					for _, l := range rep.Losses {
						if errors.Is(l.Err, tc.wantErr) && (l.File == st.file || l.File == ManifestName) {
							match = true
						}
					}
					if !match {
						t.Errorf("losses %v carry no %v for %s", rep.Losses, tc.wantErr, st.file)
					}
					wantKept := 0
					for _, c := range counts[:tc.keptShards] {
						wantKept += c
					}
					wantLost := tc.lostEvents(counts)
					shardsKept, kept, lost := st.report(rep)
					if shardsKept != tc.keptShards || kept != wantKept || lost != wantLost {
						t.Errorf("report: %d shards, %d records kept, %d lost; want %d, %d, %d",
							shardsKept, kept, lost, tc.keptShards, wantKept, wantLost)
					}

					// The rewritten directory must load, carry the
					// degradation note, and hold exactly the validated
					// record prefix.
					back, err := Load(dir)
					if err != nil {
						t.Fatalf("Load after Recover: %v", err)
					}
					if back.Meta.Degraded == "" || !strings.HasPrefix(back.Meta.Degraded, "recovered:") {
						t.Errorf("Meta.Degraded = %q, want a recovery note", back.Meta.Degraded)
					}
					// The stream's loss note is exact when it lost records
					// and absent otherwise.
					note := fmt.Sprintf("%s lost %d shards (%d %s)", st.note, len(counts)-tc.keptShards, wantLost, st.unit)
					if wantLost == 0 {
						note = st.note + " lost"
					}
					if has := strings.Contains(back.Meta.Degraded, note); has != (wantLost != 0) {
						t.Errorf("Meta.Degraded = %q: has %q = %v, want %v", back.Meta.Degraded, note, has, !has)
					}
					got := reflect.ValueOf(st.records(back))
					want := reflect.ValueOf(st.records(e)).Slice(0, wantKept)
					if got.Len() != wantKept {
						t.Fatalf("recovered experiment has %d records, want %d", got.Len(), wantKept)
					}
					for i := 0; i < wantKept; i++ {
						if g, w := got.Index(i).Interface(), want.Index(i).Interface(); !reflect.DeepEqual(g, w) {
							t.Fatalf("recovered record %d differs: %+v vs %+v", i, g, w)
						}
					}

					// A second recovery finds nothing more to fix (the
					// degradation note in meta is expected and not a
					// defect).
					rep2, err := Recover(dir)
					if err != nil {
						t.Fatalf("second Recover: %v", err)
					}
					if !rep2.Clean {
						t.Errorf("second Recover not Clean: losses %v", rep2.Losses)
					}
				})
			}
		})
	}
}

// writeManifestRaw writes an explicit (possibly wrong) manifest, for
// stale-manifest tests.
func writeManifestRaw(dir string, m *Manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, ManifestName), append(data, '\n'), 0o644)
}

// TestRecoverUnrecoverable: without a readable meta header or program
// object no report can be built; Recover must refuse with
// ErrUnrecoverable rather than fabricate an empty experiment.
func TestRecoverUnrecoverable(t *testing.T) {
	for _, file := range []string{metaFile, progFile} {
		t.Run(file, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "s.er")
			if err := sample().Save(dir); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, file), []byte("garbage"), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := Recover(dir)
			if !errors.Is(err, ErrUnrecoverable) {
				t.Errorf("Recover with corrupt %s: %v, want ErrUnrecoverable", file, err)
			}
		})
	}
}

// TestRecoverSideFilesDegrade: damaged clock/alloc gobs degrade to empty
// with a loss entry instead of failing recovery.
func TestRecoverSideFilesDegrade(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "s.er")
	if err := sample().Save(dir); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{clockFile, allocsFile} {
		if err := os.WriteFile(filepath.Join(dir, f), []byte{0x13}, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ClockLost || !rep.AllocsLost {
		t.Errorf("ClockLost=%v AllocsLost=%v, want both true", rep.ClockLost, rep.AllocsLost)
	}
	back, err := Load(dir)
	if err != nil {
		t.Fatalf("Load after Recover: %v", err)
	}
	if len(back.Clock) != 0 || len(back.Allocs) != 0 {
		t.Errorf("degraded side data not emptied: %d clock, %d allocs", len(back.Clock), len(back.Allocs))
	}
	for _, want := range []string{"clock data lost", "alloc data lost"} {
		if !strings.Contains(back.Meta.Degraded, want) {
			t.Errorf("Meta.Degraded = %q, missing %q", back.Meta.Degraded, want)
		}
	}
}

// TestRecoverProvisional: a spool directory holding only the provisional
// header, program, and a shard prefix — the state a crash mid-collect
// leaves behind — recovers into a loadable degraded experiment.
func TestRecoverProvisional(t *testing.T) {
	e := multiShardSample()
	dir := filepath.Join(t.TempDir(), "spool.er")
	if err := e.WriteProvisional(nil, dir); err != nil {
		t.Fatal(err)
	}
	// Spool two full shards, as the collector would have before dying.
	w, err := NewShardWriterFS(nil, filepath.Join(dir, ShardFileName(0)), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range e.HWC[0][:2*DefaultShardEvents] {
		if err := w.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean {
		t.Error("provisional directory reported Clean")
	}
	back, err := Load(dir)
	if err != nil {
		t.Fatalf("Load after Recover: %v", err)
	}
	if len(back.HWC[0]) != 2*DefaultShardEvents {
		t.Errorf("recovered %d spooled events, want %d", len(back.HWC[0]), 2*DefaultShardEvents)
	}
	if back.Meta.ExitStatus != ProvisionalExitStatus {
		t.Errorf("ExitStatus = %q, want the provisional marker preserved", back.Meta.ExitStatus)
	}
	if back.Meta.Degraded == "" {
		t.Error("recovered provisional experiment carries no degradation note")
	}
}
