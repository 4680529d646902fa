// Package cache implements the set-associative cache models used by the
// workload characterization pipeline: a private L1 per core and a shared L2
// (the SoC's last-level cache), both write-back and write-allocate with LRU
// replacement, plus a Hierarchy that splits byte spans into line-sized events
// and forwards misses to a memory sink.
//
// The models are performance models, not functional ones: they track which
// lines are resident, not the data in them (kernels compute on real host
// memory separately).
package cache

import (
	"fmt"
	"slices"

	"gopim/internal/mem"
)

// Config describes a single cache.
type Config struct {
	Name     string // e.g. "L1D"
	Size     int    // total capacity in bytes
	Ways     int    // associativity
	LineSize int    // line size in bytes; 0 means mem.LineSize
}

// Key returns a string uniquely identifying the configuration, for use in
// memoization keys (the trace cache keys replay results by hardware).
func (c Config) Key() string {
	return fmt.Sprintf("%s/%d/%d/%d", c.Name, c.Size, c.Ways, c.LineSize)
}

// Stats aggregates the events observed by one cache.
type Stats struct {
	Accesses   uint64 // total line-granularity accesses
	Hits       uint64
	Misses     uint64
	Writebacks uint64 // dirty evictions
	Reads      uint64 // read accesses (subset of Accesses)
	Writes     uint64 // write accesses (subset of Accesses)
}

// MissRate returns Misses/Accesses, or 0 when idle.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// MPKI returns misses per kilo-instruction for the given instruction count.
func (s Stats) MPKI(instructions uint64) float64 {
	if instructions == 0 {
		return 0
	}
	return float64(s.Misses) / float64(instructions) * 1000
}

// Tag-word flag bits. Line addresses occupy the low 62 bits of a tag word
// (a full 64-bit address shifted right by lineBits always fits), leaving
// the top two for state: a zero tag word is an empty way, and folding
// valid/dirty into the tag keeps the hit scan to a single array.
const (
	tagValid = 1 << 63
	tagDirty = 1 << 62
	tagLine  = tagDirty - 1
)

// Cache is a single set-associative write-back, write-allocate cache with
// LRU replacement. It is not safe for concurrent use; concurrent simulation
// gives each unit of work its own cache instance (see internal/par).
//
// Each set stores its ways in recency order, most recently used first, with
// the valid lines packed ahead of the empty ways. LRU is defined by that
// order alone, so no clock or per-way timestamp is kept: a hit moves its
// line to the front, and a miss fills the first empty way or, in a full
// set, evicts the last (least recently used) way.
type Cache struct {
	cfg      Config
	sets     int
	ways     int
	lineBits uint
	tags     []uint64 // sets*ways entries; tagValid | tagDirty | line address
	// mru is the base index of the last-touched set, so tags[mru] is the
	// most recently used line. Consecutive sub-line accesses to the same
	// 64 B line — the common case in byte-wise kernels like blitting and
	// LZO — hit there without computing a set index.
	mru   int
	stats Stats
}

// New builds a cache from cfg. It panics on a malformed configuration, since
// configurations are compile-time constants in this codebase.
func New(cfg Config) *Cache {
	if cfg.LineSize == 0 {
		cfg.LineSize = mem.LineSize
	}
	if cfg.Size <= 0 || cfg.Ways <= 0 || cfg.LineSize <= 0 {
		panic(fmt.Sprintf("cache: bad config %+v", cfg))
	}
	lines := cfg.Size / cfg.LineSize
	if lines%cfg.Ways != 0 {
		panic(fmt.Sprintf("cache: %s capacity %d not divisible into %d ways", cfg.Name, cfg.Size, cfg.Ways))
	}
	sets := lines / cfg.Ways
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: %s set count %d is not a power of two", cfg.Name, sets))
	}
	if cfg.LineSize&(cfg.LineSize-1) != 0 {
		panic(fmt.Sprintf("cache: %s line size %d is not a power of two", cfg.Name, cfg.LineSize))
	}
	var lineBits uint
	for 1<<lineBits < cfg.LineSize {
		lineBits++
	}
	return &Cache{
		cfg:      cfg,
		sets:     sets,
		ways:     cfg.Ways,
		lineBits: lineBits,
		tags:     make([]uint64, sets*cfg.Ways),
	}
}

// Config returns the configuration the cache was built with.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the counters accumulated so far.
func (c *Cache) Stats() Stats { return c.stats }

// Reset clears contents and counters.
func (c *Cache) Reset() {
	clear(c.tags)
	c.mru = 0
	c.stats = Stats{}
}

// count adds n read or write accesses to the counters. Hits, misses and
// writebacks are counted by whoever resolves each access.
func (c *Cache) count(write bool, n uint64) {
	c.stats.Accesses += n
	if write {
		c.stats.Writes += n
	} else {
		c.stats.Reads += n
	}
}

// countHits adds passes iterations of body, a loop's group of plain runs
// (see LineStream), that hit throughout: each adds the group's accesses,
// all hits, to the counters.
func (c *Cache) countHits(body []uint64, passes uint64) {
	var reads, writes uint64
	for i := 0; i < len(body); i += 2 {
		if body[i]&1 != 0 {
			writes += body[i] >> 33
		} else {
			reads += body[i] >> 33
		}
	}
	c.stats.Accesses += passes * (reads + writes)
	c.stats.Hits += passes * (reads + writes)
	c.stats.Reads += passes * reads
	c.stats.Writes += passes * writes
}

// Access looks up the line containing addr, allocating it on a miss.
// It returns whether the access hit and, if a dirty line was evicted, its
// address (wbAddr) with writeback=true.
func (c *Cache) Access(addr uint64, write bool) (hit bool, writeback bool, wbAddr uint64) {
	line := addr >> c.lineBits
	c.count(write, 1)
	// A repeat of the last-touched line is already at the front of its set.
	// Tag words hold full line addresses, so a match implies a set match.
	if t := c.tags[c.mru]; t&^uint64(tagDirty) == line|tagValid {
		if write {
			c.tags[c.mru] = t | tagDirty
		}
		c.stats.Hits++
		return true, false, 0
	}
	return c.lookup(line, write)
}

// AccessRepeat applies n consecutive accesses to the line containing addr
// in O(1), returning what the first of them returned. It is equivalent to
// calling Access n times: after the first access the line is resident and
// most recently used with nothing intervening, so accesses 2..n are hits
// that change nothing but the counters (the first access settled the dirty
// bit). Bulk same-line repeats are the dominant pattern of byte-wise
// kernels (LZO matching, bool-coder output), which is what makes compiled
// trace replay fast.
func (c *Cache) AccessRepeat(addr uint64, write bool, n uint64) (hit bool, writeback bool, wbAddr uint64) {
	hit, writeback, wbAddr = c.Access(addr, write)
	if n > 1 {
		c.count(write, n-1)
		c.stats.Hits += n - 1
	}
	return hit, writeback, wbAddr
}

// lookup resolves one access to line, already counted by the caller as an
// access, and is the one set scan every walker shares. It moves the line to
// the front of its set; on a miss the set grows into its first empty way
// or, when full, drops its last (least recently used) way, whose writeback
// it reports if dirty. The scan shifts each way it passes one place back,
// so the move to the front costs no second pass.
func (c *Cache) lookup(line uint64, write bool) (hit bool, writeback bool, wbAddr uint64) {
	base := int(line&uint64(c.sets-1)) * c.ways
	c.mru = base
	set := c.tags[base : base+c.ways]
	key := line | tagValid
	front := key
	if write {
		front |= tagDirty
	}
	prev := front // what moves into the way being visited
	for i, t := range set {
		set[i] = prev
		if t&^uint64(tagDirty) == key {
			set[0] = t | front
			c.stats.Hits++
			return true, false, 0
		}
		if t == 0 {
			c.stats.Misses++
			return false, false, 0
		}
		prev = t
	}
	// Full set: prev is the least recently used line, now shifted out.
	c.stats.Misses++
	if prev&tagDirty != 0 {
		c.stats.Writebacks++
		return false, true, (prev & tagLine) << c.lineBits
	}
	return false, false, 0
}

// sameGeometry reports whether two caches index and tag lines identically,
// i.e. whether the same access sequence drives both through the same state
// transitions. Capacity split (sets, ways) and line size are what matter;
// the config name and the byte capacity it implies are irrelevant.
func sameGeometry(a, b *Cache) bool {
	return a.sets == b.sets && a.ways == b.ways && a.lineBits == b.lineBits
}

// sameState reports whether two caches of the same geometry are in
// identical simulation state: tags (in recency order), MRU index and
// counters. Two same-geometry caches in the same state stay in the same
// state under any shared access sequence — the invariant HierarchySet's
// lead-cache sharing rests on.
func sameState(a, b *Cache) bool {
	return a.mru == b.mru && a.stats == b.stats && slices.Equal(a.tags, b.tags)
}

// copyStateFrom makes c's simulation state identical to src's. Both caches
// must share a geometry (the caller guarantees it); the config is left
// untouched.
func (c *Cache) copyStateFrom(src *Cache) {
	copy(c.tags, src.tags)
	c.mru = src.mru
	c.stats = src.stats
}

// Contains reports whether the line holding addr is resident. It does not
// disturb LRU state or counters; it exists for tests.
func (c *Cache) Contains(addr uint64) bool {
	want := addr>>c.lineBits | tagValid
	base := (int(addr>>c.lineBits) & (c.sets - 1)) * c.ways
	for i := base; i < base+c.ways; i++ {
		if c.tags[i]&^uint64(tagDirty) == want {
			return true
		}
	}
	return false
}

// ResidentLines returns how many lines are currently valid (for tests).
func (c *Cache) ResidentLines() int {
	n := 0
	for _, t := range c.tags {
		if t&tagValid != 0 {
			n++
		}
	}
	return n
}
