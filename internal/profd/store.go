package profd

// store.go is the experiment store/registry: completed experiment
// directories persist under a managed root, indexed by program/config
// hash, and reduced analyzer.Analyzer results are memoized so repeated
// report queries never re-aggregate events.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dsprof/internal/analyzer"
	"dsprof/internal/experiment"
	"dsprof/internal/faultfs"
)

// ExpRecord is one completed experiment in the store's index.
type ExpRecord struct {
	ID       string    `json:"id"`
	Dir      string    `json:"dir"` // directory name under the store root
	Hash     string    `json:"hash"`
	Program  string    `json:"program"`
	Counters string    `json:"counters"`
	Command  string    `json:"command"`
	Label    string    `json:"label,omitempty"` // collector provenance (e.g. "reorder:node")
	When     time.Time `json:"when"`
	Cycles   uint64    `json:"cycles"`
	// Degraded carries the experiment's recovery note when the store
	// salvaged it from a failed save instead of failing the job.
	Degraded string `json:"degraded,omitempty"`
}

const indexFile = "index.json"

// maxCachedAnalyzers bounds the analyzer memo; reduction results are
// large (the aggregates plus every EA-carrying event), so the cache
// evicts beyond this.
const maxCachedAnalyzers = 32

// maxCachedPartials bounds the per-shard partial cache. A partial is
// much smaller than a whole analyzer (one shard's worth of EA-carrying
// events), so the bound is correspondingly larger.
const maxCachedPartials = 4096

type analyzerEntry struct {
	once sync.Once
	a    *analyzer.Analyzer
	err  error
}

// shardPartialCache memoizes per-shard reduction partials across
// analyzer builds. Store experiments are immutable once committed, so a
// shard key (experiment id + shard coordinates + cycle range) always
// maps to the same partial: querying overlapping experiment sets — e.g.
// {A1} then {A1,A2} — re-reduces only the shards not already seen.
// It implements analyzer.PartialCache.
type shardPartialCache struct {
	mu     sync.Mutex
	m      map[string]*analyzer.ShardPartial
	hits   atomic.Uint64
	misses atomic.Uint64
}

func newShardPartialCache() *shardPartialCache {
	return &shardPartialCache{m: make(map[string]*analyzer.ShardPartial)}
}

func (c *shardPartialCache) Get(key string) (*analyzer.ShardPartial, bool) {
	c.mu.Lock()
	p, ok := c.m[key]
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return p, ok
}

func (c *shardPartialCache) Put(key string, p *analyzer.ShardPartial) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.m) >= maxCachedPartials {
		// Evict an arbitrary entry: partials are cheap to rebuild.
		for k := range c.m {
			delete(c.m, k)
			break
		}
	}
	c.m[key] = p
}

// Reducer reduces a set of stored experiments to an analyzer.
type Reducer func(ids []string) (*analyzer.Analyzer, error)

// Store is the on-disk experiment registry plus the analyzer memo.
type Store struct {
	root string
	fsys faultfs.FS // write-side filesystem (faultfs.OS in production)

	mu   sync.Mutex
	exps map[string]*ExpRecord // by ID
	seq  int

	cacheMu   sync.Mutex
	reduce    Reducer // what the memo memoizes; SetReducer replaces it
	analyzers map[string]*analyzerEntry
	hits      atomic.Uint64
	misses    atomic.Uint64

	partials *shardPartialCache
}

// OpenStore opens (creating if needed) a managed experiment root and
// loads its index. Experiments recorded in the index whose directories
// have vanished are dropped; stray *.tmp directories from interrupted
// writes are removed.
func OpenStore(root string) (*Store, error) {
	return OpenStoreFS(faultfs.OS, root)
}

// OpenStoreFS is OpenStore with a pluggable write-side filesystem — the
// store's fault-injection seam.
func OpenStoreFS(fsys faultfs.FS, root string) (*Store, error) {
	fsys = faultfs.Or(fsys)
	if err := fsys.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("profd: store root: %w", err)
	}
	s := &Store{
		root:      root,
		fsys:      fsys,
		exps:      make(map[string]*ExpRecord),
		analyzers: make(map[string]*analyzerEntry),
		partials:  newShardPartialCache(),
	}
	s.reduce = s.reduceLocal
	if err := s.loadIndex(); err != nil {
		return nil, err
	}
	// Sweep leftovers from interrupted Put calls.
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, fmt.Errorf("profd: store root: %w", err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			fsys.RemoveAll(filepath.Join(root, e.Name()))
		}
	}
	return s, nil
}

// Root returns the managed root directory.
func (s *Store) Root() string { return s.root }

func (s *Store) loadIndex() error {
	b, err := os.ReadFile(filepath.Join(s.root, indexFile))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("profd: reading index: %w", err)
	}
	var recs []*ExpRecord
	if err := json.Unmarshal(b, &recs); err != nil {
		return fmt.Errorf("profd: corrupted index %s: %w", filepath.Join(s.root, indexFile), err)
	}
	for _, r := range recs {
		if st, err := os.Stat(filepath.Join(s.root, r.Dir)); err != nil || !st.IsDir() {
			continue // experiment vanished; drop from index
		}
		s.exps[r.ID] = r
		if n := seqOf(r.ID); n > s.seq {
			s.seq = n
		}
	}
	return nil
}

// seqOf extracts the numeric suffix of an "exp-N" id (0 if none).
func seqOf(id string) int {
	var n int
	if _, err := fmt.Sscanf(id, "exp-%d", &n); err != nil {
		return 0
	}
	return n
}

// writeIndex persists the index atomically (write-temp-then-rename).
// Callers hold s.mu.
func (s *Store) writeIndex() error {
	recs := make([]*ExpRecord, 0, len(s.exps))
	for _, r := range s.exps {
		recs = append(recs, r)
	}
	sort.Slice(recs, func(i, j int) bool { return seqOf(recs[i].ID) < seqOf(recs[j].ID) })
	b, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(s.root, indexFile+".tmp")
	if err := faultfs.WriteFile(s.fsys, tmp, b); err != nil {
		return err
	}
	if err := s.fsys.Rename(tmp, filepath.Join(s.root, indexFile)); err != nil {
		return err
	}
	// Make the committed index durable across power loss.
	return s.fsys.SyncDir(s.root)
}

// Put persists a completed experiment under the managed root and
// indexes it. The directory write is atomic: the experiment is saved to
// a temporary directory and renamed into place, so a crash or
// cancellation mid-write never leaves a partial experiment visible.
func (s *Store) Put(spec *JobSpec, exp *experiment.Experiment) (*ExpRecord, error) {
	s.mu.Lock()
	s.seq++
	id := fmt.Sprintf("exp-%d", s.seq)
	s.mu.Unlock()

	rec := &ExpRecord{
		ID:       id,
		Dir:      fmt.Sprintf("%s-%s.er", id, spec.ConfigHash()),
		Hash:     spec.ConfigHash(),
		Program:  exp.Meta.ProgName,
		Counters: spec.Counters,
		Command:  exp.Meta.Command,
		Label:    exp.Meta.Label,
		When:     exp.Meta.When,
		Cycles:   exp.Meta.Stats.Cycles,
	}
	final := filepath.Join(s.root, rec.Dir)
	tmp := final + ".tmp"
	if err := exp.SaveFS(s.fsys, tmp); err != nil {
		// Graceful degradation: a fault mid-save may still have left a
		// salvageable directory (the manifest-validated shard prefix).
		// Recover it and commit the degraded experiment rather than
		// failing the whole job; only an unrecoverable directory (or a
		// still-failing filesystem) fails the Put.
		rrep, rerr := experiment.RecoverFS(s.fsys, tmp)
		if rerr != nil {
			s.fsys.RemoveAll(tmp)
			if !errors.Is(rerr, experiment.ErrUnrecoverable) {
				return nil, fmt.Errorf("profd: saving experiment: %w (recovery also failed: %v)", err, rerr)
			}
			return nil, fmt.Errorf("profd: saving experiment: %w", err)
		}
		rec.Degraded = rrep.Summary()
	} else if exp.Meta.Degraded != "" {
		rec.Degraded = exp.Meta.Degraded
	}
	ownFinal := true
	if err := s.fsys.Rename(tmp, final); err != nil {
		// Two stores on the same root (or a crashed predecessor) can
		// race persisting the same config hash: the loser's rename onto
		// the existing experiment directory fails even though an
		// identical experiment is already in place. Verify the resident
		// directory really is the same program/config and treat that as
		// success rather than failing the job spuriously.
		if m, merr := experiment.ReadMeta(final); merr == nil &&
			m.ProgName == exp.Meta.ProgName && m.Command == exp.Meta.Command {
			s.fsys.RemoveAll(tmp)
			ownFinal = false // the resident directory is the racer's
		} else {
			s.fsys.RemoveAll(tmp)
			return nil, fmt.Errorf("profd: committing experiment: %w", err)
		}
	}
	// A failure past this point must roll the commit back: a Put that
	// reports an error while leaving a committed-but-unindexed (or
	// indexed-in-memory-only) experiment behind would let a retried job
	// store the data twice.
	rollback := func() {
		if ownFinal {
			s.fsys.RemoveAll(final)
		}
	}
	// Make the committed experiment directory durable: the rename is only
	// guaranteed to survive power loss once the parent is fsynced.
	if err := s.fsys.SyncDir(s.root); err != nil {
		rollback()
		return nil, fmt.Errorf("profd: committing experiment: %w", err)
	}

	s.mu.Lock()
	s.exps[id] = rec
	werr := s.writeIndex()
	if werr != nil {
		delete(s.exps, id)
	}
	s.mu.Unlock()
	if werr != nil {
		rollback()
		return nil, fmt.Errorf("profd: writing index: %w", werr)
	}
	return rec, nil
}

// Get looks up one experiment by ID.
func (s *Store) Get(id string) (*ExpRecord, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.exps[id]
	return r, ok
}

// Count returns the number of indexed experiments. Unlike List it does
// not build the sorted listing — the metrics path reads it on every
// scrape, concurrently with stores from the scheduler.
func (s *Store) Count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.exps)
}

// List returns every indexed experiment, oldest first.
func (s *Store) List() []*ExpRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	recs := make([]*ExpRecord, 0, len(s.exps))
	for _, r := range s.exps {
		recs = append(recs, r)
	}
	sort.Slice(recs, func(i, j int) bool { return seqOf(recs[i].ID) < seqOf(recs[j].ID) })
	return recs
}

// ByHash returns the experiments recorded for one program/config hash,
// oldest first — e.g. every run of the paper's experiment A.
func (s *Store) ByHash(hash string) []*ExpRecord {
	var out []*ExpRecord
	for _, r := range s.List() {
		if r.Hash == hash {
			out = append(out, r)
		}
	}
	return out
}

// Dirs resolves experiment IDs to their on-disk directories.
func (s *Store) Dirs(ids []string) ([]string, error) {
	dirs := make([]string, 0, len(ids))
	for _, id := range ids {
		r, ok := s.Get(id)
		if !ok {
			return nil, fmt.Errorf("profd: no experiment %q", id)
		}
		dirs = append(dirs, filepath.Join(s.root, r.Dir))
	}
	return dirs, nil
}

// SetReducer replaces the reduction the analyzer memo runs on a miss —
// the store's local reduction by default. A cluster coordinator installs
// its distributed reduce here, so report queries on every node go
// through the one memo.
func (s *Store) SetReducer(fn Reducer) {
	s.cacheMu.Lock()
	s.reduce = fn
	s.cacheMu.Unlock()
}

// Analyzer returns the merged, reduced analyzer over the given
// experiment IDs, memoized: the first query for a set of experiments
// reduces them; repeated queries (any order of the same IDs) hit the
// cache and never re-aggregate events.
func (s *Store) Analyzer(ids []string) (*analyzer.Analyzer, error) {
	if len(ids) == 0 {
		return nil, fmt.Errorf("profd: no experiments selected")
	}
	key := cacheKey(ids)

	s.cacheMu.Lock()
	reduce := s.reduce
	e := s.analyzers[key]
	if e == nil {
		e = &analyzerEntry{}
		// Bound the memo: evict an arbitrary entry when full. Entries
		// are cheap to rebuild relative to a profiled run.
		if len(s.analyzers) >= maxCachedAnalyzers {
			for k := range s.analyzers {
				delete(s.analyzers, k)
				break
			}
		}
		s.analyzers[key] = e
		s.misses.Add(1)
	} else {
		s.hits.Add(1)
	}
	s.cacheMu.Unlock()

	e.once.Do(func() { e.a, e.err = reduce(ids) })
	if e.err != nil {
		// Don't pin failures in the cache: a later query retries.
		s.cacheMu.Lock()
		if s.analyzers[key] == e {
			delete(s.analyzers, key)
		}
		s.cacheMu.Unlock()
	}
	return e.a, e.err
}

// reduceLocal loads and reduces the experiments in this process, with
// per-shard memoization.
func (s *Store) reduceLocal(ids []string) (*analyzer.Analyzer, error) {
	dirs, err := s.Dirs(ids)
	if err != nil {
		return nil, err
	}
	exps := make([]*experiment.Experiment, 0, len(dirs))
	for _, d := range dirs {
		// Open, not Load: v2 counter events stay on disk and stream
		// shard-by-shard through the parallel reduction below.
		exp, err := experiment.Open(d)
		if err != nil {
			return nil, err
		}
		exps = append(exps, exp)
	}
	// Keys[i] names exps[i] for the per-shard partial cache: store
	// experiments are immutable, so id+shard coordinates is stable.
	return analyzer.NewWithConfig(analyzer.Config{
		Cache: s.partials,
		Keys:  ids,
	}, exps...)
}

// cacheKey canonicalizes an ID set (order-insensitive).
func cacheKey(ids []string) string {
	sorted := append([]string(nil), ids...)
	sort.Strings(sorted)
	return strings.Join(sorted, ",")
}

// CacheStats returns the analyzer memo's hit/miss counters.
func (s *Store) CacheStats() (hits, misses uint64) {
	return s.hits.Load(), s.misses.Load()
}

// ShardCacheStats returns the per-shard partial cache's hit/miss
// counters (one probe per shard per analyzer build).
func (s *Store) ShardCacheStats() (hits, misses uint64) {
	return s.partials.hits.Load(), s.partials.misses.Load()
}

// PartialCache exposes the store's per-shard partial cache so cluster
// worker nodes serving remote partial requests share memoization with
// local report queries: a shard reduced for either path is never
// re-attributed for the other.
func (s *Store) PartialCache() analyzer.PartialCache { return s.partials }
