package cache

import (
	"slices"
	"testing"

	"gopim/internal/dram"
)

// fuzzConfigs are the three hierarchies FuzzLineStream replays into: two
// share the small L1 geometry (one HierarchySet group) over different
// LLCs, the third has a direct-mapped L1 and no LLC.
func fuzzConfigs() []func() *Hierarchy {
	mk := func(l1 Config, l2 *Config) func() *Hierarchy {
		return func() *Hierarchy {
			var c2 *Cache
			if l2 != nil {
				c2 = New(*l2)
			}
			return NewHierarchy(New(l1), c2, dram.NewRowMeter())
		}
	}
	l1 := small().Config()
	return []func() *Hierarchy{
		mk(l1, &Config{Name: "LLC", Size: 4 << 10, Ways: 4}),
		mk(l1, &Config{Name: "LLC", Size: 2 << 10, Ways: 8}),
		mk(Config{Name: "DM", Size: 512, Ways: 1}, nil),
	}
}

// fuzzAccesses decodes one access per byte: bit 0 is the write flag and
// the other seven bits the line index, so 128 lines contend for the
// 16-line L1.
func fuzzAccesses(data []byte) []lineAccess {
	accs := make([]lineAccess, len(data))
	for i, b := range data {
		accs[i] = lineAccess{addr: uint64(b>>1) << 6, write: b&1 != 0}
	}
	return accs
}

// repeatGroup returns k back-to-back copies of the accesses in group.
func repeatGroup(k int, group ...byte) []byte {
	var out []byte
	for i := 0; i < k; i++ {
		out = append(out, group...)
	}
	return out
}

// FuzzLineStream builds the decoded accesses into a LineStream and
// requires the stream to decode back to them, its Len to equal the access
// count and the reused builder to encode them again the same; a batched
// walk (a three-member HierarchySet, so the stream walker both with and
// without followers) to leave every member in the per-access path's tags,
// counters and DRAM meters; and the L1's hit, miss and writeback counts to
// equal the recency-list oracle's.
func FuzzLineStream(f *testing.F) {
	var repeat, stride, conflict []byte
	for i := 0; i < 64; i++ {
		repeat = append(repeat, 0x20|byte(i/16&1))              // line 16, reads then writes
		stride = append(stride, byte(i%40)<<1|byte(i/40))       // ascending lines, then writes
		conflict = append(conflict, byte(i%5*8)<<1|byte(i%3/2)) // lines 0, 8, ... share set 0
	}
	descending := make([]byte, 48)
	for i := range descending {
		descending[i] = byte(127-i) << 1
	}
	// Read lines 0-7, write them again (hits away from the MRU line), then
	// read lines 8-23, which map to the same sets and evict the dirty ones.
	var reuse []byte
	for _, write := range []byte{0, 1} {
		for line := byte(0); line < 8; line++ {
			reuse = append(reuse, line<<1|write)
		}
	}
	for line := byte(8); line < 24; line++ {
		reuse = append(reuse, line<<1)
	}
	// Groups of runs repeated back to back, which the builder folds into
	// loops. loopFit's lines fit the 8x2 L1 (sets 0-4, 6, 7), so every
	// iteration after the second is counted in bulk; loopOverflow puts
	// lines 0, 8 and 16 in set 0, so every iteration misses and both
	// walkers walk them all; loopMixed mixes write repeats, read and
	// write strides and a single access, and ends inside an iteration.
	loopFit := repeatGroup(5, 0<<1, 1<<1, 2<<1, 3<<1, 12<<1|1, 12<<1|1, 22<<1, 23<<1)
	loopOverflow := repeatGroup(4, 0<<1, 8<<1, 16<<1, 5<<1|1, 5<<1|1, 30<<1, 31<<1)
	mixedGroup := []byte{40<<1 | 1, 40<<1 | 1, 40<<1 | 1, 41 << 1, 42 << 1, 43 << 1, 44 << 1, 50<<1 | 1, 52<<1 | 1, 54<<1 | 1, 7 << 1}
	loopMixed := slices.Concat([]byte{100 << 1}, repeatGroup(6, mixedGroup...), mixedGroup[:7], []byte{90 << 1, 91<<1 | 1})
	// Runs of two lines, three kinds, in an order whose last loop's
	// unfinished iteration ends in three equal runs: closing that loop,
	// at the end of the stream or at a run that breaks it, opens a
	// shorter one.
	var nested []byte
	for _, kind := range []byte{0, 1, 1, 2, 1, 0, 1, 1, 1, 0, 2, 1, 0, 1, 1, 1, 0, 2, 1, 0, 1, 1, 1, 0, 2, 1, 0, 1, 1, 1} {
		line := 10 + 20*kind
		nested = append(nested, line<<1, (line+1)<<1)
	}
	for _, seed := range [][]byte{repeat, stride, conflict, descending, reuse, slices.Concat(stride, conflict),
		loopFit, loopOverflow, loopMixed, nested, slices.Concat(nested, []byte{50 << 1, 51 << 1})} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		accs := fuzzAccesses(data)
		var b StreamBuilder
		for _, a := range accs {
			b.Access(a.addr, a.write)
		}
		s := b.Finish()
		if got := s.Len(); got != uint64(len(accs)) {
			t.Fatalf("stream Len %d, want %d accesses", got, len(accs))
		}
		if !slices.Equal(expand(&s), accs) {
			t.Fatalf("stream does not decode to the accesses it was built from")
		}
		for _, a := range accs {
			b.Access(a.addr, a.write)
		}
		if again := b.Finish(); !slices.Equal(again.prog, s.prog) {
			t.Fatalf("the reused builder encoded the same accesses differently")
		}

		cfgs := fuzzConfigs()
		batched := make([]*Hierarchy, len(cfgs))
		for i, mk := range cfgs {
			batched[i] = mk()
		}
		NewHierarchySet(batched).ReplayStreamBatch(&s)
		for i, mk := range cfgs {
			h, each := batched[i], mk()
			replayReference(each, accs)
			if !equalCacheState(h.L1, each.L1) || (each.L2 != nil && !equalCacheState(h.L2, each.L2)) {
				t.Fatalf("config %d: cache state diverged from the per-access path", i)
			}
			mh, me := h.Mem.(*dram.RowMeter), each.Mem.(*dram.RowMeter)
			if mh.Traffic() != me.Traffic() || mh.RowStats() != me.RowStats() {
				t.Fatalf("config %d: DRAM meter diverged from the per-access path", i)
			}
			checkSets(t, h.L1)
		}

		ref := newRefCache(small().Config())
		var want Stats
		for _, a := range accs {
			hit, wb, _ := ref.access(a.addr, a.write)
			if hit {
				want.Hits++
			} else {
				want.Misses++
			}
			if wb {
				want.Writebacks++
			}
		}
		got := batched[0].L1.Stats()
		if got.Hits != want.Hits || got.Misses != want.Misses || got.Writebacks != want.Writebacks {
			t.Fatalf("L1 hits/misses/writebacks %d/%d/%d, reference %d/%d/%d",
				got.Hits, got.Misses, got.Writebacks, want.Hits, want.Misses, want.Writebacks)
		}
	})
}
