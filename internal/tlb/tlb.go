// Package tlb models the data translation lookaside buffer (DTLB).
//
// The TLB caches virtual page translations. Page size is a property of the
// memory segment being accessed (the machine passes the page base of each
// access), which is how -xpagesize_heap=512k reduces DTLB misses: larger
// heap pages mean one entry covers more of the working set.
package tlb

import (
	"fmt"
	"math/bits"
)

// Config describes TLB geometry.
type Config struct {
	Entries int // total entries
	Assoc   int // associativity; Entries/Assoc sets
}

// DefaultConfig approximates the UltraSPARC-III Cu DTLB scaled to the
// simulator's workload sizes: 128 entries, 2-way.
func DefaultConfig() Config { return Config{Entries: 128, Assoc: 2} }

// MissPenaltyCycles is the paper's estimate of the cost of one DTLB miss
// ("estimating the cost of a DTLB Miss as 100 cycles").
const MissPenaltyCycles = 100

// invalidBase marks a never-installed entry. Queried page bases are
// page-aligned, so the all-ones base can never match and no separate
// valid flag is needed.
const invalidBase = ^uint64(0)

type entry struct {
	base uint64
	use  uint64
}

// TLB is a set-associative translation cache with LRU replacement.
// Entries are stored in one flat slice indexed by set*assoc+way, so a
// lookup — on the critical path of every simulated memory access — costs
// no pointer hop through a per-set slice header.
type TLB struct {
	entries []entry
	assoc   int
	setMask uint64

	// MRU memo: the index of the entry the previous Lookup hit or
	// installed, so a repeat translation of the same page skips the set
	// scan. lastSize disambiguates lookups that alias on page base
	// across page sizes. The second (prev) memo entry catches the
	// ubiquitous two-page alternation of heap data and stack spills,
	// which would thrash a single-entry memo on every access. Memo hits
	// re-validate against the live entry, so an install that evicts a
	// memoized entry cannot produce a stale hit.
	lastIdx  int
	lastSize uint64
	prevIdx  int
	prevSize uint64

	// Lookups counts translations and doubles as the LRU clock: it
	// advances by exactly one per Lookup, so use stamps are lookup
	// sequence numbers.
	Lookups uint64
	Misses  uint64
}

// New builds a TLB.
func New(cfg Config) (*TLB, error) {
	if cfg.Entries <= 0 || cfg.Assoc <= 0 || cfg.Entries%cfg.Assoc != 0 {
		return nil, fmt.Errorf("tlb: bad geometry %+v", cfg)
	}
	nsets := cfg.Entries / cfg.Assoc
	if nsets&(nsets-1) != 0 {
		return nil, fmt.Errorf("tlb: set count %d not a power of two", nsets)
	}
	t := &TLB{
		entries: make([]entry, cfg.Entries),
		assoc:   cfg.Assoc,
		setMask: uint64(nsets - 1),
	}
	for i := range t.entries {
		t.entries[i].base = invalidBase
	}
	return t, nil
}

// Lookup translates the page starting at pageBase (already aligned to
// pageSize by the caller). It reports whether the translation hit; misses
// install the entry. Only a Lookup mutates entries, and every Lookup
// refreshes a memo, so a memo match repeats the previous translation
// exactly — same entry a set scan would find (duplicate bases are never
// installed), same use-stamp update.
func (t *TLB) Lookup(pageBase, pageSize uint64) bool {
	t.Lookups++
	if e := &t.entries[t.lastIdx]; e.base == pageBase && t.lastSize == pageSize {
		e.use = t.Lookups
		return true
	}
	return t.lookup2(pageBase, pageSize)
}

// lookup2 checks the second memo entry before falling to the set scan,
// promoting a hit to the first slot. Kept out of line so the first-memo
// hit in Lookup stays small.
//
//go:noinline
func (t *TLB) lookup2(pageBase, pageSize uint64) bool {
	if e := &t.entries[t.prevIdx]; e.base == pageBase && t.prevSize == pageSize {
		e.use = t.Lookups
		t.lastIdx, t.lastSize, t.prevIdx, t.prevSize = t.prevIdx, t.prevSize, t.lastIdx, t.lastSize
		return true
	}
	return t.lookupSlow(pageBase, pageSize)
}

func (t *TLB) lookupSlow(pageBase, pageSize uint64) bool {
	t.prevIdx, t.prevSize = t.lastIdx, t.lastSize
	t.lastSize = pageSize
	// Index by the page number so pages of any size spread over the sets.
	// Page sizes are powers of two, so the quotient is a shift.
	base := int((pageBase>>uint(bits.TrailingZeros64(pageSize)))&t.setMask) * t.assoc
	set := t.entries[base : base+t.assoc]
	// Hit scan first — the common case pays none of the victim tracking.
	for i := range set {
		if set[i].base == pageBase {
			t.lastIdx = base + i
			set[i].use = t.Lookups
			return true
		}
	}
	// Victim: the way with the lowest use stamp. Never-used ways hold
	// stamp 0, below any real lookup number, so they are filled first.
	victim := 0
	for i := 1; i < len(set); i++ {
		if set[i].use < set[victim].use {
			victim = i
		}
	}
	t.Misses++
	set[victim] = entry{base: pageBase, use: t.Lookups}
	t.lastIdx = base + victim
	return false
}

// EntryHit performs the lookup against one specific entry index: it
// reports false — with no state change — unless that entry currently
// holds pageBase. On a hit it applies exactly what a full Lookup hit
// would (clock tick, use stamp). Segments are disjoint and installed
// bases are page-aligned, so a base match alone identifies the page; the
// index is a caller-remembered performance hint (the translated
// engine's per-site TLB caches), verified on every use.
func (t *TLB) EntryHit(idx int, pageBase uint64) bool {
	e := &t.entries[idx]
	if e.base != pageBase {
		return false
	}
	t.Lookups++
	e.use = t.Lookups
	return true
}

// LastIdx reports the entry index of the most recent Lookup hit or
// install — the value a per-site cache should remember after a fallback
// Lookup. Pure optimization state: no translation outcome depends on it.
func (t *TLB) LastIdx() int { return t.lastIdx }

// Contains probes without side effects.
func (t *TLB) Contains(pageBase, pageSize uint64) bool {
	base := int((pageBase>>uint(bits.TrailingZeros64(pageSize)))&t.setMask) * t.assoc
	set := t.entries[base : base+t.assoc]
	for i := range set {
		if set[i].base == pageBase {
			return true
		}
	}
	return false
}

// Flush invalidates all entries and clears statistics.
func (t *TLB) Flush() {
	for i := range t.entries {
		t.entries[i] = entry{base: invalidBase}
	}
	t.Lookups, t.Misses = 0, 0
	t.lastIdx, t.lastSize = 0, 0
	t.prevIdx, t.prevSize = 0, 0
}
