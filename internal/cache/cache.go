// Package cache models the processor cache hierarchy: a small write-through
// level-1 data cache (D$) backed by a large write-back external cache (E$),
// following the UltraSPARC-III Cu organization the paper's experiments ran
// on (64 KB 4-way 32 B-line D$, 8 MB 2-way 512 B-line E$).
//
// The model is a timing and event model, not a coherence model: each access
// reports which levels hit, which counter events it generated, and how many
// stall cycles the pipeline lost. Geometry and miss costs are configurable
// so experiments can run with scaled-down caches while preserving the
// working-set-to-cache ratios that drive the paper's results.
package cache

import "fmt"

// Config describes one cache level.
type Config struct {
	Name      string
	SizeBytes int
	LineBytes int
	Assoc     int
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// Validate checks geometry invariants.
func (c *Config) Validate() error {
	if !isPow2(c.SizeBytes) || !isPow2(c.LineBytes) || !isPow2(c.Assoc) {
		return fmt.Errorf("cache %s: size, line and associativity must be powers of two", c.Name)
	}
	if c.LineBytes*c.Assoc > c.SizeBytes {
		return fmt.Errorf("cache %s: size %d too small for %d-way %d-byte lines", c.Name, c.SizeBytes, c.Assoc, c.LineBytes)
	}
	return nil
}

// Sets returns the number of sets.
func (c *Config) Sets() int { return c.SizeBytes / (c.LineBytes * c.Assoc) }

// Tag-word flag bits. The valid and dirty state of each way is packed
// into the top bits of its tag word instead of parallel []bool arrays, so
// a probe touches one word instead of three and the probe working set
// shrinks. Line numbers (full address >> lineShift) must fit the low 62
// bits, i.e. addresses below 2^67 with the smallest legal line size.
const (
	tagValid   = uint64(1) << 63
	tagDirty   = uint64(1) << 62
	tagPayload = tagDirty - 1 // low 62 bits: the line number
)

// way is one cache way: the packed tag word and its LRU stamp, adjacent
// so a probe's tag match and stamp update touch the same host cache
// line. A 4-way set is exactly one 64-byte line of metadata.
type way struct {
	tag uint64
	use uint64
}

// Cache is one set-associative cache level with true-LRU replacement.
type Cache struct {
	cfg       Config
	lineShift uint
	setMask   uint64
	assoc     int
	ways      []way // sets*assoc way records
	lastIdx   int   // index of the most recent hit or install (MRU memo)

	// tick is the LRU clock and doubles as the access counter: every
	// counted access — hit or miss, read or write — advances it by
	// exactly one (failed probes and Contains touch nothing), so
	// Reads() derives as tick-writes and the hit paths pay one counter
	// update instead of two.
	tick   uint64
	writes uint64

	// Statistics (cumulative). Misses are off the hit path, so they
	// stay plain fields.
	ReadMisses  uint64
	WriteMisses uint64
}

// New builds a cache from cfg.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := cfg.Sets()
	var shift uint
	for 1<<shift != cfg.LineBytes {
		shift++
	}
	return &Cache{
		cfg:       cfg,
		lineShift: shift,
		setMask:   uint64(sets - 1),
		assoc:     cfg.Assoc,
		ways:      make([]way, sets*cfg.Assoc),
	}, nil
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// LineBytes returns the line size.
func (c *Cache) LineBytes() int { return c.cfg.LineBytes }

// lineOf returns the line number (full address >> lineShift).
func (c *Cache) lineOf(addr uint64) uint64 { return addr >> c.lineShift }

// Reads reports the cumulative read (and prefetch) access count. It is
// derived from the LRU clock — every access ticks once, so reads are
// the ticks that were not writes — keeping the per-access hot paths to
// a single counter update.
func (c *Cache) Reads() uint64 { return c.tick - c.writes }

// Writes reports the cumulative write access count.
func (c *Cache) Writes() uint64 { return c.writes }

// HitMRU performs the access against the most-recently-used entry only:
// it reports false — with no state change — unless addr hits the same way
// the previous access touched. On a hit it applies exactly the updates a
// full Access would (tick, read/write statistics, LRU stamp, dirty bit),
// so callers can use it as an inlinable fast path in front of Access.
func (c *Cache) HitMRU(addr uint64, write bool) bool {
	line := addr >> c.lineShift
	e := &c.ways[c.lastIdx]
	if e.tag&(tagValid|tagPayload) != tagValid|line {
		return false
	}
	c.tick++
	if write {
		c.writes++
		e.tag |= tagDirty
	}
	e.use = c.tick
	return true
}

// WayHit performs the access against one specific way: it reports false —
// with no state change — unless addr's line currently occupies ways[way].
// On a hit it applies exactly the updates a full Access would, like
// HitMRU but with a caller-remembered way instead of the MRU memo, so
// per-site way caches (the translated engine's memory ops) can verify
// and retire repeat hits inline. The way index is a performance hint
// only: a stale one fails the tag compare and the caller falls back.
func (c *Cache) WayHit(way int, addr uint64, write bool) bool {
	line := addr >> c.lineShift
	e := &c.ways[way]
	if e.tag&(tagValid|tagPayload) != tagValid|line {
		return false
	}
	c.tick++
	if write {
		c.writes++
		e.tag |= tagDirty
	}
	e.use = c.tick
	return true
}

// LastWay reports the way index of the most recent hit or install — the
// value a per-site way cache should remember after a fallback Access.
// Like the MRU memo it feeds, it is pure optimization state: no
// architectural or statistics update depends on it.
func (c *Cache) LastWay() int { return c.lastIdx }

// Access performs a read or write access to addr. allocate controls
// whether a miss installs the line (write-through no-write-allocate D$
// stores pass allocate=false). It reports whether the access hit, and
// whether installing the line evicted a dirty victim (write-back traffic).
func (c *Cache) Access(addr uint64, write, allocate bool) (hit, writeback bool) {
	// MRU memo: a line's payload encodes its set, so matching the way the
	// last access touched proves this access hits the same entry a full
	// scan would find, with identical stamp and statistics updates.
	if c.HitMRU(addr, write) {
		return true, false
	}
	return c.AccessFull(addr, write, allocate)
}

// AccessFull is Access without the leading MRU-memo probe. Callers that
// just failed HitMRU on the same address use it to skip the redundant
// re-check (a failed probe mutates nothing); it is otherwise identical.
//
// The hit test and the victim tracking read the same tag and stamp
// words, so they fold into one pass over the set (the old
// hit-then-victim double walk re-read every way on a miss), and the two
// associativities the modeled hierarchy actually uses (4-way D$/I$,
// 2-way E$) get unrolled scans — the generic loop's induction and
// bounds machinery costs as much as the tag compares themselves. An
// invalid way's stamp reads as 0 — ways are stamped on every install
// and tick starts at 1 — so "lowest use wins" alone also picks the
// first invalid way, and the victim needs no validity tie-break. Victim
// choice is the first way with the minimum stamp, in way order, exactly
// like the generic scan.
func (c *Cache) AccessFull(addr uint64, write, allocate bool) (hit, writeback bool) {
	line := c.lineOf(addr)
	base := int(line&c.setMask) * c.assoc
	c.tick++
	if write {
		c.writes++
	}
	match := tagValid | line
	var victim int
	switch c.assoc {
	case 4:
		set := c.ways[base : base+4 : base+4]
		w := -1
		switch {
		case set[0].tag&(tagValid|tagPayload) == match:
			w = 0
		case set[1].tag&(tagValid|tagPayload) == match:
			w = 1
		case set[2].tag&(tagValid|tagPayload) == match:
			w = 2
		case set[3].tag&(tagValid|tagPayload) == match:
			w = 3
		}
		if w >= 0 {
			c.lastIdx = base + w
			set[w].use = c.tick
			if write {
				set[w].tag |= tagDirty
			}
			return true, false
		}
		u0, u1, u2, u3 := set[0].use, set[1].use, set[2].use, set[3].use
		if set[0].tag&tagValid == 0 {
			u0 = 0
		}
		if set[1].tag&tagValid == 0 {
			u1 = 0
		}
		if set[2].tag&tagValid == 0 {
			u2 = 0
		}
		if set[3].tag&tagValid == 0 {
			u3 = 0
		}
		vuse := u0
		if u1 < vuse {
			victim, vuse = 1, u1
		}
		if u2 < vuse {
			victim, vuse = 2, u2
		}
		if u3 < vuse {
			victim = 3
		}
	case 2:
		set := c.ways[base : base+2 : base+2]
		if set[0].tag&(tagValid|tagPayload) == match {
			c.lastIdx = base
			set[0].use = c.tick
			if write {
				set[0].tag |= tagDirty
			}
			return true, false
		}
		if set[1].tag&(tagValid|tagPayload) == match {
			c.lastIdx = base + 1
			set[1].use = c.tick
			if write {
				set[1].tag |= tagDirty
			}
			return true, false
		}
		u0, u1 := set[0].use, set[1].use
		if set[0].tag&tagValid == 0 {
			u0 = 0
		}
		if set[1].tag&tagValid == 0 {
			u1 = 0
		}
		if u1 < u0 {
			victim = 1
		}
	default:
		set := c.ways[base : base+c.assoc]
		vuse := ^uint64(0)
		for i := range set {
			tag := set[i].tag
			if tag&(tagValid|tagPayload) == match {
				c.lastIdx = base + i
				set[i].use = c.tick
				if write {
					set[i].tag = tag | tagDirty
				}
				return true, false
			}
			use := set[i].use
			if tag&tagValid == 0 {
				use = 0
			}
			if use < vuse {
				victim, vuse = i, use
			}
		}
	}
	if write {
		c.WriteMisses++
	} else {
		c.ReadMisses++
	}
	if !allocate {
		return false, false
	}
	e := &c.ways[base+victim]
	old := e.tag
	writeback = old&(tagValid|tagDirty) == tagValid|tagDirty
	w := line | tagValid
	if write {
		w |= tagDirty
	}
	*e = way{tag: w, use: c.tick}
	c.lastIdx = base + victim
	return false, writeback
}

// Contains probes for addr without disturbing LRU state or statistics.
func (c *Cache) Contains(addr uint64) bool {
	line := c.lineOf(addr)
	base := int(line&c.setMask) * c.assoc
	for i := base; i < base+c.assoc; i++ {
		if w := c.ways[i].tag; w&tagValid != 0 && w&tagPayload == line {
			return true
		}
	}
	return false
}

// Flush invalidates every line and clears statistics.
func (c *Cache) Flush() {
	for i := range c.ways {
		c.ways[i] = way{}
	}
	c.tick = 0
	c.lastIdx = 0
	c.writes, c.ReadMisses, c.WriteMisses = 0, 0, 0
}
