package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gopim/internal/mem"
)

func small() *Cache {
	// 8 sets x 2 ways x 64B lines = 1 KiB.
	return New(Config{Name: "T", Size: 1024, Ways: 2})
}

func TestColdMissThenHit(t *testing.T) {
	c := small()
	hit, wb, _ := c.Access(0x1000, false)
	if hit || wb {
		t.Fatalf("first access: hit=%v wb=%v, want cold miss", hit, wb)
	}
	hit, _, _ = c.Access(0x1000, false)
	if !hit {
		t.Fatal("second access to same line missed")
	}
	hit, _, _ = c.Access(0x1004, true)
	if !hit {
		t.Fatal("access within same line missed")
	}
	s := c.Stats()
	if s.Accesses != 3 || s.Hits != 2 || s.Misses != 1 {
		t.Errorf("stats = %+v, want 3 accesses / 2 hits / 1 miss", s)
	}
	if s.Reads != 2 || s.Writes != 1 {
		t.Errorf("reads/writes = %d/%d, want 2/1", s.Reads, s.Writes)
	}
}

func TestLRUEviction(t *testing.T) {
	c := small()
	// Three lines mapping to the same set (stride = sets*lineSize = 512B).
	a, b, d := uint64(0), uint64(512), uint64(1024)
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // a is now MRU, b is LRU
	c.Access(d, false) // must evict b
	if !c.Contains(a) {
		t.Error("a evicted; LRU should have evicted b")
	}
	if c.Contains(b) {
		t.Error("b still resident; it was LRU")
	}
	if !c.Contains(d) {
		t.Error("d not resident after allocation")
	}
	e := uint64(1536)
	c.Access(e, false) // a is now LRU: recency keeps working after an eviction
	if c.Contains(a) || !c.Contains(d) || !c.Contains(e) {
		t.Error("second eviction did not take a, the least recently used line")
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := small()
	c.Access(0, true) // dirty
	c.Access(512, false)
	_, wb, wbAddr := c.Access(1024, false) // evicts line 0 (LRU, dirty)
	if !wb {
		t.Fatal("expected writeback of dirty LRU line")
	}
	if wbAddr != 0 {
		t.Errorf("writeback address = %#x, want 0", wbAddr)
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", c.Stats().Writebacks)
	}
}

func TestCleanEvictionNoWriteback(t *testing.T) {
	c := small()
	c.Access(0, false)
	c.Access(512, false)
	_, wb, _ := c.Access(1024, false)
	if wb {
		t.Error("clean eviction produced a writeback")
	}
}

func TestResetClears(t *testing.T) {
	c := small()
	c.Access(0, true)
	c.Reset()
	if c.ResidentLines() != 0 {
		t.Error("lines resident after Reset")
	}
	if c.Stats() != (Stats{}) {
		t.Errorf("stats not zeroed: %+v", c.Stats())
	}
	if hit, _, _ := c.Access(0, false); hit {
		t.Error("hit after Reset")
	}
}

func TestCapacityNeverExceeded(t *testing.T) {
	c := New(Config{Name: "T", Size: 4096, Ways: 4})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		c.Access(uint64(rng.Intn(1<<20))&^63, rng.Intn(2) == 0)
		if got := c.ResidentLines(); got > 4096/64 {
			t.Fatalf("resident lines %d exceeds capacity %d", got, 4096/64)
		}
	}
}

func TestStatsHelpers(t *testing.T) {
	s := Stats{Accesses: 100, Misses: 25}
	if got := s.MissRate(); got != 0.25 {
		t.Errorf("MissRate = %v, want 0.25", got)
	}
	if got := s.MPKI(1000); got != 25 {
		t.Errorf("MPKI = %v, want 25", got)
	}
	var zero Stats
	if zero.MissRate() != 0 || zero.MPKI(0) != 0 {
		t.Error("zero stats should yield zero rates")
	}
}

func TestBadConfigPanics(t *testing.T) {
	cases := []Config{
		{Name: "zero", Size: 0, Ways: 1},
		{Name: "ways", Size: 1024, Ways: 0},
		{Name: "nonpow2", Size: 3 * 64, Ways: 1}, // 3 sets
	}
	for _, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

// Property: hits+misses == accesses and writebacks <= misses, under random
// access streams.
func TestStatInvariants(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		c := New(Config{Name: "Q", Size: 2048, Ways: 2})
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < int(n); i++ {
			c.Access(uint64(rng.Intn(1<<16)), rng.Intn(2) == 0)
		}
		s := c.Stats()
		return s.Hits+s.Misses == s.Accesses &&
			s.Reads+s.Writes == s.Accesses &&
			s.Writebacks <= s.Misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// ---- Hierarchy tests ----

type sink struct {
	reads, writes []uint64
}

func (s *sink) ReadLine(a uint64)  { s.reads = append(s.reads, a) }
func (s *sink) WriteLine(a uint64) { s.writes = append(s.writes, a) }

func TestHierarchySpanSplitting(t *testing.T) {
	s := &sink{}
	h := NewHierarchy(New(Config{Name: "L1", Size: 1024, Ways: 2}), nil, s)
	h.Load(10, 120) // bytes 10..129 touch lines 0, 64 and 128
	if len(s.reads) != 3 {
		t.Fatalf("got %d memory reads, want 3", len(s.reads))
	}
	if s.reads[0] != 0 || s.reads[1] != 64 || s.reads[2] != 128 {
		t.Errorf("read line addresses = %v, want [0 64 128]", s.reads)
	}
}

func TestHierarchyL2Filters(t *testing.T) {
	s := &sink{}
	l1 := New(Config{Name: "L1", Size: 1024, Ways: 2})
	l2 := New(Config{Name: "L2", Size: 64 << 10, Ways: 8})
	h := NewHierarchy(l1, l2, s)

	// Touch 2KiB: misses L1 (1KiB) partially but fits in L2.
	for off := 0; off < 2048; off += 64 {
		h.Load(uint64(off), 64)
	}
	memReads := len(s.reads)
	// Re-touch: everything hits in L2 even where L1 misses.
	for off := 0; off < 2048; off += 64 {
		h.Load(uint64(off), 64)
	}
	if len(s.reads) != memReads {
		t.Errorf("second pass reached memory (%d new reads); L2 should absorb it", len(s.reads)-memReads)
	}
}

func TestHierarchyDirtyEvictionReachesMemory(t *testing.T) {
	s := &sink{}
	l1 := New(Config{Name: "L1", Size: 1024, Ways: 2})
	h := NewHierarchy(l1, nil, s)
	// Write 4 KiB streaming: with a 1 KiB L1, dirty lines must be written back.
	for off := 0; off < 4096; off += 64 {
		h.Store(uint64(off), 64)
	}
	if len(s.writes) == 0 {
		t.Fatal("no writebacks reached memory despite streaming stores beyond L1 capacity")
	}
}

func TestHierarchyZeroLengthIgnored(t *testing.T) {
	s := &sink{}
	h := NewHierarchy(New(Config{Name: "L1", Size: 1024, Ways: 2}), nil, s)
	h.Load(0, 0)
	h.Store(0, -1)
	if h.L1.Stats().Accesses != 0 {
		t.Error("zero/negative length spans produced accesses")
	}
}

func TestHierarchyNeedsL1AndSink(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewHierarchy(nil, nil, nil) did not panic")
		}
	}()
	NewHierarchy(nil, nil, nil)
}

// Streaming through a working set larger than L1+L2 must produce memory
// traffic close to the touched footprint.
func TestHierarchyStreamingTraffic(t *testing.T) {
	s := &sink{}
	l1 := New(Config{Name: "L1", Size: 64 << 10, Ways: 4})
	l2 := New(Config{Name: "L2", Size: 2 << 20, Ways: 8})
	h := NewHierarchy(l1, l2, s)
	const footprint = 8 << 20
	for off := 0; off < footprint; off += mem.LineSize {
		h.Load(uint64(off), mem.LineSize)
	}
	gotBytes := len(s.reads) * mem.LineSize
	if gotBytes != footprint {
		t.Errorf("memory read traffic = %d bytes, want %d (pure streaming)", gotBytes, footprint)
	}
}
