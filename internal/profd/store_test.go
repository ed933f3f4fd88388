package profd

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"dsprof/internal/experiment"
)

// testExperiment runs one quick profiled collect of the test workload
// (memoized across tests — the store tests only need a valid
// experiment, not distinct ones).
var (
	testExpOnce sync.Once
	testExpA    *experiment.Experiment
	testExpB    *experiment.Experiment
	testExpErr  error
)

func testExperiments(t *testing.T) (*experiment.Experiment, *experiment.Experiment) {
	t.Helper()
	testExpOnce.Do(func() {
		a, b := specA(32), specB(32)
		prog, input, cfg, err := newBuilder().Resolve(&a)
		if err != nil {
			testExpErr = err
			return
		}
		resA, err := collectSpec(context.Background(), prog, input, cfg, &a)
		if err != nil {
			testExpErr = err
			return
		}
		resB, err := collectSpec(context.Background(), prog, input, cfg, &b)
		if err != nil {
			testExpErr = err
			return
		}
		testExpA, testExpB = resA.Exp, resB.Exp
	})
	if testExpErr != nil {
		t.Fatal(testExpErr)
	}
	return testExpA, testExpB
}

func TestStorePutGetReopen(t *testing.T) {
	expA, expB := testExperiments(t)
	root := t.TempDir()
	store, err := OpenStore(root)
	if err != nil {
		t.Fatal(err)
	}
	sa, sb := specA(32), specB(32)
	recA, err := store.Put(&sa, expA)
	if err != nil {
		t.Fatal(err)
	}
	recB, err := store.Put(&sb, expB)
	if err != nil {
		t.Fatal(err)
	}
	if recA.ID != "exp-1" || recB.ID != "exp-2" {
		t.Errorf("ids = %s, %s; want exp-1, exp-2", recA.ID, recB.ID)
	}
	if recA.Hash == recB.Hash {
		t.Error("different configs share a hash")
	}

	// Reopen from disk: index survives, seq continues.
	store2, err := OpenStore(root)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(store2.List()); got != 2 {
		t.Fatalf("reopened store holds %d experiments, want 2", got)
	}
	if r, ok := store2.Get("exp-1"); !ok || r.Hash != recA.Hash {
		t.Error("exp-1 lost or changed across reopen")
	}
	rec3, err := store2.Put(&sa, expA)
	if err != nil {
		t.Fatal(err)
	}
	if rec3.ID != "exp-3" {
		t.Errorf("seq after reopen gave %s, want exp-3", rec3.ID)
	}
	if got := store2.ByHash(recA.Hash); len(got) != 2 {
		t.Errorf("ByHash found %d runs of config A, want 2", len(got))
	}

	dirs, err := store2.Dirs([]string{"exp-1", "exp-2"})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if _, err := experiment.Load(d); err != nil {
			t.Errorf("stored experiment %s does not load: %v", d, err)
		}
	}
	if _, err := store2.Dirs([]string{"exp-1", "exp-99"}); err == nil {
		t.Error("Dirs resolved a missing experiment")
	}
}

// TestAnalyzerMemo: the first report query reduces, repeats (in any ID
// order) hit the cache without re-running the reduction.
func TestAnalyzerMemo(t *testing.T) {
	expA, expB := testExperiments(t)
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sa, sb := specA(32), specB(32)
	recA, _ := store.Put(&sa, expA)
	recB, _ := store.Put(&sb, expB)

	a1, err := store.Analyzer([]string{recA.ID, recB.ID})
	if err != nil {
		t.Fatal(err)
	}
	if h, m := store.CacheStats(); h != 0 || m != 1 {
		t.Errorf("after first query: hits=%d misses=%d, want 0/1", h, m)
	}
	// Same set, reversed order: must be the identical reduced analyzer.
	a2, err := store.Analyzer([]string{recB.ID, recA.ID})
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Error("repeat query re-ran the reduction (distinct analyzer)")
	}
	if h, m := store.CacheStats(); h != 1 || m != 1 {
		t.Errorf("after repeat query: hits=%d misses=%d, want 1/1", h, m)
	}
	// A different subset is a distinct reduction.
	if _, err := store.Analyzer([]string{recA.ID}); err != nil {
		t.Fatal(err)
	}
	if h, m := store.CacheStats(); h != 1 || m != 2 {
		t.Errorf("after subset query: hits=%d misses=%d, want 1/2", h, m)
	}
	// Failures are not pinned: the bad query errors every time.
	if _, err := store.Analyzer([]string{"exp-99"}); err == nil {
		t.Fatal("analyzer over missing experiment succeeded")
	}
	if _, err := store.Analyzer([]string{"exp-99"}); err == nil {
		t.Fatal("analyzer over missing experiment succeeded on retry")
	}
	if _, err := store.Analyzer(nil); err == nil {
		t.Error("analyzer over empty selection succeeded")
	}
}

// TestStorePutRaceIdentical: two stores sharing one root race to
// persist the same config. Both assign the same sequence number, so the
// loser's rename lands on an existing directory that already holds the
// identical experiment — that must count as success, not a spurious
// commit failure.
func TestStorePutRaceIdentical(t *testing.T) {
	expA, _ := testExperiments(t)
	root := t.TempDir()
	s1, err := OpenStore(root)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := OpenStore(root)
	if err != nil {
		t.Fatal(err)
	}
	sa := specA(32)
	rec1, err := s1.Put(&sa, expA)
	if err != nil {
		t.Fatal(err)
	}
	rec2, err := s2.Put(&sa, expA)
	if err != nil {
		t.Fatalf("losing Put of an identical experiment failed: %v", err)
	}
	if rec1.Dir != rec2.Dir {
		t.Fatalf("stores did not collide (dirs %s vs %s); race not exercised", rec1.Dir, rec2.Dir)
	}
	if _, err := experiment.Load(filepath.Join(root, rec2.Dir)); err != nil {
		t.Errorf("experiment unreadable after racing Put: %v", err)
	}
	if _, err := os.Stat(filepath.Join(root, rec2.Dir+".tmp")); !os.IsNotExist(err) {
		t.Error("losing Put left its .tmp directory behind")
	}

	// A resident directory that is NOT the same experiment stays an error.
	bogus := filepath.Join(root, "exp-2-"+sa.ConfigHash()+".er")
	if err := os.MkdirAll(bogus, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(bogus, "meta.gob"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Put(&sa, expA); err == nil {
		t.Error("Put onto a non-matching resident directory succeeded")
	}
}

// TestShardPartialCacheReuse: overlapping experiment selections
// re-reduce only the shards not already seen — querying {A} then {A,B}
// hits every one of A's cached partials.
func TestShardPartialCacheReuse(t *testing.T) {
	expA, expB := testExperiments(t)
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sa, sb := specA(32), specB(32)
	recA, _ := store.Put(&sa, expA)
	recB, _ := store.Put(&sb, expB)

	if _, err := store.Analyzer([]string{recA.ID}); err != nil {
		t.Fatal(err)
	}
	h0, m0 := store.ShardCacheStats()
	if h0 != 0 || m0 == 0 {
		t.Fatalf("after first build: shard hits=%d misses=%d, want 0 hits and >0 misses", h0, m0)
	}
	if _, err := store.Analyzer([]string{recA.ID, recB.ID}); err != nil {
		t.Fatal(err)
	}
	if h1, _ := store.ShardCacheStats(); h1 != m0 {
		t.Errorf("querying {A,B} after {A} hit %d shard partials, want all %d of A's", h1, m0)
	}
}

func TestOpenStoreSweepsTmp(t *testing.T) {
	root := t.TempDir()
	stray := filepath.Join(root, "exp-9-deadbeef.er.tmp")
	if err := os.MkdirAll(stray, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(root); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Error("stray .tmp directory survived OpenStore")
	}
}

func TestOpenStoreCorruptIndex(t *testing.T) {
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, indexFile), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenStore(root)
	if err == nil || !strings.Contains(err.Error(), "corrupted index") {
		t.Errorf("OpenStore on corrupt index = %v, want descriptive error", err)
	}
}

func TestOpenStoreDropsVanishedDirs(t *testing.T) {
	expA, _ := testExperiments(t)
	root := t.TempDir()
	store, err := OpenStore(root)
	if err != nil {
		t.Fatal(err)
	}
	sa := specA(32)
	rec, err := store.Put(&sa, expA)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(filepath.Join(root, rec.Dir)); err != nil {
		t.Fatal(err)
	}
	store2, err := OpenStore(root)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(store2.List()); got != 0 {
		t.Errorf("vanished experiment still indexed (%d records)", got)
	}
}
