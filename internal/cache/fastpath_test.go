package cache

import (
	"math/rand"
	"testing"

	"gopim/internal/dram"
)

// refCache is an independent set-associative LRU model used to check that
// the recency-ordered sets and the MRU fast path never change observable
// behaviour. It keeps each set as a freshly allocated recency list, so it
// shares neither the packed tag array nor the MRU shortcut.
type refCache struct {
	sets     int
	ways     int
	lineBits uint
	lists    [][]refLine // per set, most-recent first
}

type refLine struct {
	tag   uint64
	dirty bool
}

func newRefCache(cfg Config) *refCache {
	c := New(cfg) // reuse geometry validation
	return &refCache{
		sets:     c.sets,
		ways:     c.ways,
		lineBits: c.lineBits,
		lists:    make([][]refLine, c.sets),
	}
}

func (r *refCache) access(addr uint64, write bool) (hit, writeback bool, wbAddr uint64) {
	line := addr >> r.lineBits
	set := int(line) & (r.sets - 1)
	list := r.lists[set]
	for i, l := range list {
		if l.tag == line {
			l.dirty = l.dirty || write
			r.lists[set] = append([]refLine{l}, append(append([]refLine{}, list[:i]...), list[i+1:]...)...)
			return true, false, 0
		}
	}
	if len(list) == r.ways {
		victim := list[len(list)-1]
		list = list[:len(list)-1]
		if victim.dirty {
			writeback = true
			wbAddr = victim.tag << r.lineBits
		}
	}
	r.lists[set] = append([]refLine{{tag: line, dirty: write}}, list...)
	return false, writeback, wbAddr
}

// randomStream drives cache and reference with the same accesses and fails
// on the first divergence in (hit, writeback, wbAddr) or final stats. The
// addresses mix sub-line repeats, conflicts in one set, and random lines
// over four times the capacity, so every geometry sees hits, fills of
// empty ways and evictions.
func randomStream(t *testing.T, c *Cache, seed int64, accesses int) {
	t.Helper()
	ref := newRefCache(c.Config())
	rng := rand.New(rand.NewSource(seed))
	setStride := uint64(c.sets) << c.lineBits
	var hits, misses, wbs uint64
	for i := 0; i < accesses; i++ {
		var addr uint64
		switch rng.Intn(4) {
		case 0:
			// Repeat-heavy: sub-line neighbours of the previous access
			// exercise the MRU filter.
			addr = uint64(rng.Intn(256))
		case 1:
			addr = uint64(rng.Intn(c.ways+2)) * setStride // same-set conflicts
		default:
			addr = uint64(rng.Intn(4 * c.cfg.Size))
		}
		write := rng.Intn(3) == 0
		hit, wb, wbAddr := c.Access(addr, write)
		rHit, rWb, rWbAddr := ref.access(addr, write)
		if hit != rHit || wb != rWb || wbAddr != rWbAddr {
			t.Fatalf("%s access %d (addr %#x write %v): got (%v %v %#x), reference (%v %v %#x)",
				c.cfg.Name, i, addr, write, hit, wb, wbAddr, rHit, rWb, rWbAddr)
		}
		if hit {
			hits++
		} else {
			misses++
		}
		if wb {
			wbs++
		}
	}
	s := c.Stats()
	if s.Hits != hits || s.Misses != misses || s.Writebacks != wbs {
		t.Fatalf("%s: stats %+v disagree with observed %d hits / %d misses / %d writebacks",
			c.cfg.Name, s, hits, misses, wbs)
	}
	checkSets(t, c)
}

// checkSets checks the representation invariant of every set: valid ways
// come before empty ones, each valid line maps to the set it sits in, and
// no line appears twice.
func checkSets(t *testing.T, c *Cache) {
	t.Helper()
	for set := 0; set < c.sets; set++ {
		ways := c.tags[set*c.ways : (set+1)*c.ways]
		seen := map[uint64]bool{}
		empty := false
		for i, tag := range ways {
			if tag == 0 {
				empty = true
				continue
			}
			line := tag & tagLine
			switch {
			case empty:
				t.Fatalf("%s set %d: valid way %d follows an empty way: %#x", c.cfg.Name, set, i, ways)
			case tag&tagValid == 0:
				t.Fatalf("%s set %d way %d: nonzero tag %#x without the valid bit", c.cfg.Name, set, i, tag)
			case int(line)&(c.sets-1) != set:
				t.Fatalf("%s set %d way %d: line %#x belongs to set %d", c.cfg.Name, set, i, line, int(line)&(c.sets-1))
			case seen[line]:
				t.Fatalf("%s set %d: line %#x appears twice: %#x", c.cfg.Name, set, line, ways)
			}
			seen[line] = true
		}
	}
}

// TestAccessMatchesReferenceModel runs the recency-list oracle against the
// small test cache, the simulator's three L1 geometries and a 128 B-line
// geometry.
func TestAccessMatchesReferenceModel(t *testing.T) {
	cfgs := append([]Config{small().Config(), {Name: "L1D-128B", Size: 64 << 10, Ways: 4, LineSize: 128}}, testConfigs()...)
	for _, cfg := range cfgs {
		for seed := int64(0); seed < 8; seed++ {
			randomStream(t, New(cfg), seed, 20000)
		}
	}
}

// twoHierarchies builds identical two-level hierarchies with row-meter
// sinks for equivalence tests.
func twoHierarchies() (*Hierarchy, *dram.RowMeter, *Hierarchy, *dram.RowMeter) {
	mk := func() (*Hierarchy, *dram.RowMeter) {
		meter := dram.NewRowMeter()
		l1 := New(Config{Name: "L1", Size: 1 << 10, Ways: 2})
		l2 := New(Config{Name: "L2", Size: 4 << 10, Ways: 4})
		return NewHierarchy(l1, l2, meter), meter
	}
	ha, ma := mk()
	hb, mb := mk()
	return ha, ma, hb, mb
}

func TestSpanMatchesPerRowLoop(t *testing.T) {
	ha, ma, hb, mb := twoHierarchies()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		addr := uint64(rng.Intn(1 << 15))
		rowBytes := 1 + rng.Intn(300)
		rows := 1 + rng.Intn(40)
		stride := uint64(rng.Intn(512))
		write := rng.Intn(2) == 0

		if write {
			ha.StoreSpan(addr, rowBytes, rows, stride)
		} else {
			ha.LoadSpan(addr, rowBytes, rows, stride)
		}
		a := addr
		for r := 0; r < rows; r++ {
			if write {
				hb.Store(a, rowBytes)
			} else {
				hb.Load(a, rowBytes)
			}
			a += stride
		}

		if ha.L1.Stats() != hb.L1.Stats() {
			t.Fatalf("iter %d: L1 stats diverge: span %+v, loop %+v", i, ha.L1.Stats(), hb.L1.Stats())
		}
		if ha.L2.Stats() != hb.L2.Stats() {
			t.Fatalf("iter %d: L2 stats diverge: span %+v, loop %+v", i, ha.L2.Stats(), hb.L2.Stats())
		}
		if ma.Traffic() != mb.Traffic() || ma.RowStats() != mb.RowStats() {
			t.Fatalf("iter %d: DRAM stats diverge: span %+v/%+v, loop %+v/%+v",
				i, ma.Traffic(), ma.RowStats(), mb.Traffic(), mb.RowStats())
		}
	}
}
