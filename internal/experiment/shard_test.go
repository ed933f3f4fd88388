package experiment

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dsprof/internal/faultfs"
	"dsprof/internal/hwc"
	"dsprof/internal/machine"
)

func shardEvents(n int) []HWCEvent {
	evs := make([]HWCEvent, n)
	for i := range evs {
		evs[i] = HWCEvent{PIC: 0, DeliveredPC: 0x1000 + uint64(4*i), Cycles: uint64(10 + i)}
	}
	return evs
}

func TestShardWriterRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hwc0.ev2")
	w, err := NewShardWriterFS(nil, path, 0)
	if err != nil {
		t.Fatal(err)
	}
	evs := shardEvents(2*DefaultShardEvents + 5)
	for _, ev := range evs {
		if err := w.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != len(evs) {
		t.Errorf("Count = %d, want %d", w.Count(), len(evs))
	}
	shards := w.Shards()
	if len(shards) != 3 {
		t.Fatalf("shards = %d, want 3", len(shards))
	}
	if shards[2].Count != 5 {
		t.Errorf("tail count = %d", shards[2].Count)
	}
	idx, loss, err := scanShards(path, hwcKinds[0].shardFile)
	if err != nil || loss != nil {
		t.Fatal(err, loss)
	}
	if len(idx) != len(shards) {
		t.Fatalf("index has %d shards, wrote %d", len(idx), len(shards))
	}
	var got []HWCEvent
	for i, sh := range idx {
		if sh != shards[i] {
			t.Errorf("shard %d index mismatch: %+v vs %+v", i, sh, shards[i])
		}
		sevs, err := readShardFile[HWCEvent](path, sh)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, sevs...)
	}
	if len(got) != len(evs) {
		t.Fatalf("read %d events, wrote %d", len(got), len(evs))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], evs[i]) {
			t.Fatalf("event %d differs", i)
		}
	}
}

// TestShardWriterFlushPartial: Flush mid-stream writes the partial
// shard, so a cancelled collection keeps delivered events.
func TestShardWriterFlushPartial(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hwc1.ev2")
	w, err := NewShardWriterFS(nil, path, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range shardEvents(3) {
		ev.PIC = 1
		if err := w.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	idx, loss, err := scanShards(path, hwcKinds[1].shardFile)
	if err != nil || loss != nil {
		t.Fatal(err, loss)
	}
	if len(idx) != 1 || idx[0].Count != 3 || idx[0].PIC != 1 {
		t.Fatalf("index = %+v", idx)
	}
	if idx[0].MinCycles != 10 || idx[0].MaxCycles != 12 {
		t.Errorf("cycle range = [%d,%d]", idx[0].MinCycles, idx[0].MaxCycles)
	}
}

func TestShardIndexTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hwc0.ev2")
	if err := writeShards(faultfs.OS, path, hwcKinds[0], shardEvents(10)); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{len(b) - 1, len(shardMagic) + shardHeaderBytes + 3, len(shardMagic) + 5, 3} {
		if err := os.WriteFile(path, b[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, loss, err := scanShards(path, hwcKinds[0].shardFile); loss == nil || err != nil {
			t.Errorf("cut=%d: truncated shard file indexed without a loss (err %v)", cut, err)
		}
	}
}

func TestSyntheticShards(t *testing.T) {
	evs := shardEvents(DefaultShardEvents + 1)
	shards := syntheticShards(hwcKinds[0], evs)
	if len(shards) != 2 || shards[0].Count != DefaultShardEvents || shards[1].Count != 1 {
		t.Fatalf("shards = %+v", shards)
	}
	if shards[1].MinCycles != evs[len(evs)-1].Cycles {
		t.Errorf("tail MinCycles = %d", shards[1].MinCycles)
	}
	if syntheticShards(hwcKinds[0], nil) != nil {
		t.Error("synthetic shards of empty stream")
	}
}

// TestShardFormatPinned pins the on-disk shard format across commits.
// The goldens compare two runs of the same code, so only hashes recorded
// by an earlier commit catch a change to the bytes a fixed experiment
// saves. meta.gob, log.txt and the whole manifest are left out: they
// carry Stats and wall-clock fields.
func TestShardFormatPinned(t *testing.T) {
	e := &Experiment{Meta: Meta{Counters: make([]CounterSpec, NumPICs)}}
	e.Meta.Counters[0] = CounterSpec{Event: hwc.EvECStall, Interval: 10007, Backtrack: true}
	stack := []uint64{machine.TextBase + 0x40, machine.TextBase + 0x80}
	for i := 0; i < DefaultShardEvents+17; i++ {
		e.HWC[0] = append(e.HWC[0], HWCEvent{
			PIC:         0,
			DeliveredPC: machine.TextBase + 4*uint64(i%61),
			CandidatePC: machine.TextBase + 4*uint64(i%59),
			EA:          0x40000000 + 24*uint64(i),
			HasEA:       i%3 != 0,
			Callstack:   stack[:i%3],
			Cycles:      37 * uint64(i),
		})
	}
	for i := 0; i < DefaultShardEvents+5; i++ {
		rec := machine.ProvRecord{
			Site:   machine.TextBase + 8*uint64(i%5),
			Caller: machine.TextBase + 16*uint64(i%3),
			Addr:   0x20000000 + 48*uint64(i),
			Size:   uint64(16 + i%40),
			Seq:    i,
			Birth:  101 * uint64(i),
		}
		if i%2 == 1 {
			rec.Death, rec.Freed = rec.Birth+997*uint64(i%11), true
		}
		e.Prov = append(e.Prov, rec)
	}
	dir := filepath.Join(t.TempDir(), "pin.er")
	if err := e.Save(dir); err != nil {
		t.Fatal(err)
	}
	man, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string][]byte{}
	for _, name := range []string{"hwc0.ev2", "prov.pv2"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		got[name] = b
	}
	for name, v := range map[string]any{"manifest shards": man.Shards, "manifest prov": man.Prov} {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		got[name] = b
	}
	for _, want := range []struct{ name, sum string }{
		{"hwc0.ev2", "6976240649708d389f8f265f27537fb9faa9e0b7a4831d665975a4c147ad6390"},
		{"prov.pv2", "e40ab463e4a11277fc4a4447c91602d6ad6cf1465b1eac56cbb5b88efa3fd427"},
		{"manifest shards", "0159a5eebb288acfb657d6c6cc0cb15f5ff32ed0fe3053d1b313486b0f320b60"},
		{"manifest prov", "eac54360fcf4e7159654c6921dc3b783a830ec254096bcae8e3f546dda69a982"},
	} {
		if sum := fmt.Sprintf("%x", sha256.Sum256(got[want.name])); sum != want.sum {
			t.Errorf("%s: sha256 %s, want %s", want.name, sum, want.sum)
		}
	}
}
