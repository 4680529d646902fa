package cache

import (
	"math/rand"
	"slices"
	"testing"

	"gopim/internal/dram"
)

// testConfigs returns the cache geometries the simulator actually uses.
func testConfigs() []Config {
	return []Config{
		{Name: "L1D", Size: 64 << 10, Ways: 4},
		{Name: "PIM-L1", Size: 32 << 10, Ways: 4},
		{Name: "PIM-Buf", Size: 32 << 10, Ways: 8},
	}
}

// equalCacheState compares the complete internal state of two caches —
// tags (valid/dirty included) in recency order, MRU index, and counters.
func equalCacheState(a, b *Cache) bool {
	return slices.Equal(a.tags, b.tags) && a.mru == b.mru && a.stats == b.stats
}

// TestAccessRepeatMatchesLoop drives a random warm-up into two identical
// caches, then applies AccessRepeat to one and the equivalent Access loop
// to the other: every piece of internal state must match afterwards.
func TestAccessRepeatMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, cfg := range testConfigs() {
		bulk, loop := New(cfg), New(cfg)
		for trial := 0; trial < 200; trial++ {
			for i := 0; i < 50; i++ {
				addr := uint64(rng.Intn(1 << 20))
				write := rng.Intn(2) == 0
				bulk.Access(addr, write)
				loop.Access(addr, write)
			}
			addr := uint64(rng.Intn(1 << 20))
			write := rng.Intn(2) == 0
			n := uint64(1 + rng.Intn(1000))
			h1, wb1, a1 := bulk.AccessRepeat(addr, write, n)
			var h2, wb2 bool
			var a2 uint64
			for i := uint64(0); i < n; i++ {
				h, wb, a := loop.Access(addr, write)
				if i == 0 {
					h2, wb2, a2 = h, wb, a
				}
			}
			if h1 != h2 || wb1 != wb2 || a1 != a2 {
				t.Fatalf("%s trial %d: AccessRepeat returned (%v,%v,%#x), loop (%v,%v,%#x)",
					cfg.Name, trial, h1, wb1, a1, h2, wb2, a2)
			}
			if !equalCacheState(bulk, loop) {
				t.Fatalf("%s trial %d: state diverged after AccessRepeat(%#x, %v, %d)",
					cfg.Name, trial, addr, write, n)
			}
		}
	}
}

// replayReference drives the same line-access sequence through a hierarchy
// one access at a time — the path ReplayStream must be indistinguishable
// from.
func replayReference(h *Hierarchy, accs []lineAccess) {
	for _, a := range accs {
		h.access(a.addr, a.write)
	}
}

type lineAccess struct {
	addr  uint64
	write bool
}

// randomLineSequence generates line-aligned accesses biased toward the
// patterns the builder compresses: same-line repeats, ascending and
// descending constant-stride walks, and random jumps, with read/write
// flips throughout.
func randomLineSequence(rng *rand.Rand, n int) []lineAccess {
	var accs []lineAccess
	addr := uint64(rng.Intn(1<<14)) &^ 63
	for len(accs) < n {
		write := rng.Intn(2) == 0
		switch rng.Intn(4) {
		case 0: // repeat run
			reps := 1 + rng.Intn(40)
			for i := 0; i < reps; i++ {
				accs = append(accs, lineAccess{addr, write})
			}
		case 1: // ascending walk
			steps := 1 + rng.Intn(40)
			for i := 0; i < steps; i++ {
				accs = append(accs, lineAccess{addr, write})
				addr += 64
			}
		case 2: // descending walk
			steps := 1 + rng.Intn(40)
			for i := 0; i < steps && addr >= 64*uint64(steps); i++ {
				accs = append(accs, lineAccess{addr, write})
				addr -= 64
			}
		default: // jump
			addr = uint64(rng.Intn(1<<22)) &^ 63
			accs = append(accs, lineAccess{addr, write})
		}
	}
	return accs
}

// TestReplayStreamMatchesPerAccessPath builds a LineStream from random
// access sequences and requires ReplayStream to leave the L1, L2, and row
// meter in exactly the state the per-access path produces.
func TestReplayStreamMatchesPerAccessPath(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	l2cfg := Config{Name: "LLC", Size: 256 << 10, Ways: 8}
	for _, cfg := range testConfigs() {
		for _, withL2 := range []bool{false, true} {
			for trial := 0; trial < 20; trial++ {
				accs := randomLineSequence(rng, 2000)

				var b StreamBuilder
				for _, a := range accs {
					b.Access(a.addr, a.write)
				}
				s := b.Finish()
				if got := s.Len(); got != uint64(len(accs)) {
					t.Fatalf("%s: stream Len = %d, want %d", cfg.Name, got, len(accs))
				}

				newH := func() *Hierarchy {
					var l2 *Cache
					if withL2 {
						l2 = New(l2cfg)
					}
					return NewHierarchy(New(cfg), l2, dram.NewRowMeter())
				}
				hs, hr := newH(), newH()
				hs.ReplayStream(&s)
				replayReference(hr, accs)

				if !equalCacheState(hs.L1, hr.L1) {
					t.Fatalf("%s (L2=%v) trial %d: L1 state diverged", cfg.Name, withL2, trial)
				}
				if withL2 && !equalCacheState(hs.L2, hr.L2) {
					t.Fatalf("%s (L2=%v) trial %d: L2 state diverged", cfg.Name, withL2, trial)
				}
				ms := hs.Mem.(*dram.RowMeter)
				mr := hr.Mem.(*dram.RowMeter)
				if ms.Traffic() != mr.Traffic() || ms.RowStats() != mr.RowStats() {
					t.Fatalf("%s (L2=%v) trial %d: memory traffic diverged:\nstream %+v %+v\nloop   %+v %+v",
						cfg.Name, withL2, trial, ms.Traffic(), ms.RowStats(), mr.Traffic(), mr.RowStats())
				}
			}
		}
	}
}

// TestStreamBuilderEncoding checks the RLE forms directly: repeats collapse
// to one delta-0 run, constant strides to one stride run, and write-flag
// flips or stride breaks start new runs.
func TestStreamBuilderEncoding(t *testing.T) {
	var b StreamBuilder
	for i := 0; i < 10; i++ {
		b.Access(0x1000, false)
	}
	s := b.Finish()
	if s.Runs() != 1 || s.Len() != 10 {
		t.Errorf("repeat: runs=%d len=%d, want 1/10", s.Runs(), s.Len())
	}

	b = StreamBuilder{}
	for i := uint64(0); i < 16; i++ {
		b.Access(0x2000+64*i, true)
	}
	s = b.Finish()
	if s.Runs() != 1 || s.Len() != 16 {
		t.Errorf("stride: runs=%d len=%d, want 1/16", s.Runs(), s.Len())
	}

	b = StreamBuilder{}
	b.Access(0x3000, false)
	b.Access(0x3000, true) // write flip breaks the run
	b.Access(0x3040, true)
	b.Access(0x3100, true) // stride break (64 then 192)
	s = b.Finish()
	if s.Runs() != 3 || s.Len() != 4 {
		t.Errorf("breaks: runs=%d len=%d, want 3/4", s.Runs(), s.Len())
	}

	// Descending walks encode as negative deltas.
	b = StreamBuilder{}
	for i := 0; i < 8; i++ {
		b.Access(0x4000-64*uint64(i), false)
	}
	s = b.Finish()
	if s.Runs() != 1 || s.Len() != 8 {
		t.Errorf("descending: runs=%d len=%d, want 1/8", s.Runs(), s.Len())
	}
}

// TestStreamBuilderRunLengthCap seeds a pending run at the encoding's count
// limit and verifies the next access starts a fresh run instead of
// overflowing the 31-bit count field.
func TestStreamBuilderRunLengthCap(t *testing.T) {
	var b StreamBuilder
	b.Access(0x1000, false)
	b.Access(0x1000, false)
	b.n = maxRunLen // simulate a run at the cap (2^31-1 accesses)
	b.Access(0x1000, false)
	s := b.Finish()
	if s.Runs() != 2 {
		t.Fatalf("runs = %d, want 2 (capped run + fresh run)", s.Runs())
	}
	if got := s.Len(); got != maxRunLen+1 {
		t.Fatalf("len = %d, want %d", got, uint64(maxRunLen)+1)
	}
}
