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

// TestLoopEncodingAndReplay repeats a group of three runs seven times: it
// must encode as the three runs plus one loop pair, and the stream walker
// and a three-member HierarchySet must leave every L1, LLC and DRAM meter
// in the per-access path's state. The group either fits the 8x2 L1, so
// iterations after the second count in bulk, or puts three lines in one
// of its sets, so every iteration misses and is walked; the third member's
// direct-mapped 4-set L1 overflows on both. Both line sizes the simulator
// compiles for are covered.
func TestLoopEncodingAndReplay(t *testing.T) {
	const runs, iterations = 3, 7
	for _, ls := range []uint64{64, 128} {
		// Each group is a read stride, a write repeat and a two-line read
		// stride, given as line indices.
		for name, group := range map[string][]lineAccess{
			"fits":      {{0, false}, {1, false}, {2, false}, {3, false}, {12, true}, {12, true}, {22, false}, {23, false}},
			"overflows": {{0, false}, {8, false}, {16, false}, {5, true}, {5, true}, {30, false}, {31, false}},
		} {
			var accs []lineAccess
			for i := 0; i < iterations; i++ {
				for _, a := range group {
					accs = append(accs, lineAccess{a.addr * ls, a.write})
				}
			}
			var b StreamBuilder
			for _, a := range accs {
				b.Access(a.addr, a.write)
			}
			s := b.Finish()
			if s.Words() != 2*runs+2 || s.Len() != uint64(len(accs)) {
				t.Fatalf("%s at %d B: %d words, %d accesses; want %d words, %d accesses",
					name, ls, s.Words(), s.Len(), 2*runs+2, len(accs))
			}

			l1 := Config{Name: "L1", Size: 16 * int(ls), Ways: 2, LineSize: int(ls)}
			mk := []func() *Hierarchy{
				func() *Hierarchy {
					return NewHierarchy(New(l1), New(Config{Name: "LLC", Size: 64 * int(ls), Ways: 4, LineSize: int(ls)}), dram.NewRowMeter())
				},
				func() *Hierarchy {
					return NewHierarchy(New(l1), New(Config{Name: "LLC", Size: 32 * int(ls), Ways: 8, LineSize: int(ls)}), dram.NewRowMeter())
				},
				func() *Hierarchy {
					return NewHierarchy(New(Config{Name: "DM", Size: 4 * int(ls), Ways: 1, LineSize: int(ls)}), nil, dram.NewRowMeter())
				},
			}
			batched := make([]*Hierarchy, len(mk))
			for i := range mk {
				batched[i] = mk[i]()
			}
			NewHierarchySet(batched).ReplayStreamBatch(&s)
			for i := range mk {
				serial, each := mk[i](), mk[i]()
				serial.ReplayStream(&s)
				replayReference(each, accs)
				for walker, h := range map[string]*Hierarchy{"stream": serial, "batched": batched[i]} {
					if !equalCacheState(h.L1, each.L1) || (h.L2 != nil && !equalCacheState(h.L2, each.L2)) {
						t.Fatalf("%s at %d B, config %d: %s walker's cache state differs from the per-access path's",
							name, ls, i, walker)
					}
					mh, me := h.Mem.(*dram.RowMeter), each.Mem.(*dram.RowMeter)
					if mh.Traffic() != me.Traffic() || mh.RowStats() != me.RowStats() {
						t.Fatalf("%s at %d B, config %d: %s walker's DRAM meter differs from the per-access path's",
							name, ls, i, walker)
					}
				}
			}
		}
	}
}

// TestLoopAcrossChunks places a repeated group at every offset around the
// builder's first chunk boundary, so loops open, grow and close across it
// and retracted copies straddle it: the stream must decode to exactly the
// accesses built and replay like the per-access path.
func TestLoopAcrossChunks(t *testing.T) {
	group := []lineAccess{{0, false}, {64, false}, {128, false}, {192, false}, {768, true}, {768, true}, {1408, false}, {1472, false}}
	for fill := chunkWords/2 - 12; fill <= chunkWords/2+2; fill++ {
		// fill two-line runs that never repeat, then seven and a half
		// iterations of the group.
		var accs []lineAccess
		for i := 0; i < fill; i++ {
			line := uint64(1<<20 + 4*i*64)
			accs = append(accs, lineAccess{line, false}, lineAccess{line + 64, false})
		}
		for i := 0; i < 7; i++ {
			accs = append(accs, group...)
		}
		accs = append(accs, group[:5]...)
		var b StreamBuilder
		for _, a := range accs {
			b.Access(a.addr, a.write)
		}
		s := b.Finish()
		if got := expand(&s); !slices.Equal(got, accs) {
			t.Fatalf("fill %d: the stream decodes to %d accesses that differ from the %d built", fill, len(got), len(accs))
		}
		if s.Len() != uint64(len(accs)) {
			t.Fatalf("fill %d: Len %d, want %d", fill, s.Len(), len(accs))
		}
		l1 := Config{Name: "L1", Size: 4 << 10, Ways: 2}
		hs := NewHierarchy(New(l1), nil, dram.NewRowMeter())
		hr := NewHierarchy(New(l1), nil, dram.NewRowMeter())
		hs.ReplayStream(&s)
		replayReference(hr, accs)
		if !equalCacheState(hs.L1, hr.L1) || hs.Mem.(*dram.RowMeter).Traffic() != hr.Mem.(*dram.RowMeter).Traffic() {
			t.Fatalf("fill %d: stream replay differs from the per-access path", fill)
		}
	}
}

// expand decodes a stream back into its line accesses, loops unrolled.
func expand(s *LineStream) []lineAccess {
	var out []lineAccess
	var walk func(prog []uint64)
	walk = func(prog []uint64) {
		for i := 0; i < len(prog); i += 2 {
			w0, addr := prog[i], prog[i+1]
			n := w0 >> 33
			if n == 0 {
				for k := uint64(0); k < addr; k++ {
					walk(loopBody(prog, i))
				}
				continue
			}
			delta := int64(int32(uint32(w0 >> 1)))
			for ; n > 0; n-- {
				out = append(out, lineAccess{addr, w0&1 != 0})
				addr += uint64(delta)
			}
		}
	}
	walk(s.prog)
	return out
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
