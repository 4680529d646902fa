package cache

import (
	"math/rand"
	"testing"

	"gopim/internal/dram"
)

// batchConfigSets enumerates the config-set shapes batched replay must
// cover: a single config, a same-L1 family against different L2s (one
// shared group), mixed L1 geometries (several groups, some singleton), and
// members with and without an L2.
func batchConfigSets() [][]struct {
	l1 Config
	l2 *Config
} {
	type hc = struct {
		l1 Config
		l2 *Config
	}
	l2 := func(size, ways int) *Config {
		return &Config{Name: "LLC", Size: size, Ways: ways}
	}
	return [][]hc{
		// Singleton set: the batch walk degenerates to a serial walk.
		{{l1: Config{Name: "L1D", Size: 64 << 10, Ways: 4}, l2: l2(256<<10, 8)}},
		// One L1 family fanned over four different L2s — a single group.
		{
			{l1: Config{Name: "L1D", Size: 64 << 10, Ways: 4}, l2: l2(128<<10, 8)},
			{l1: Config{Name: "L1D", Size: 64 << 10, Ways: 4}, l2: l2(256<<10, 8)},
			{l1: Config{Name: "L1D", Size: 64 << 10, Ways: 4}, l2: l2(512<<10, 8)},
			{l1: Config{Name: "L1D", Size: 64 << 10, Ways: 4}, l2: l2(256<<10, 16)},
		},
		// Mixed L1 geometries incl. a no-L2 member (PIM-style) and a
		// duplicate geometry under a different name (still one group).
		{
			{l1: Config{Name: "L1D", Size: 64 << 10, Ways: 4}, l2: l2(256<<10, 8)},
			{l1: Config{Name: "PIM-L1", Size: 32 << 10, Ways: 4}, l2: nil},
			{l1: Config{Name: "PIM-Buf", Size: 32 << 10, Ways: 8}, l2: nil},
			{l1: Config{Name: "other-name", Size: 64 << 10, Ways: 4}, l2: nil},
			{l1: Config{Name: "L1D", Size: 64 << 10, Ways: 4}, l2: l2(512<<10, 8)},
		},
	}
}

// TestReplayStreamBatchMatchesSerial is the equivalence gate at the cache
// layer: for random access sequences split across several streams (phase
// boundaries), ReplayStreamBatch must leave every member hierarchy — L1,
// L2, and row meter — in the byte-identical state of issuing each stream's
// accesses one at a time through the per-access path, per config. The
// stream walker runs inside every batch, so the per-access path is the
// reference.
func TestReplayStreamBatchMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for si, set := range batchConfigSets() {
		for trial := 0; trial < 12; trial++ {
			// Several streams per trial: state (incl. the lead-L1 sync)
			// must carry correctly across ReplayStreamBatch calls.
			accs := make([][]lineAccess, 1+rng.Intn(4))
			streams := make([]LineStream, len(accs))
			for i := range streams {
				accs[i] = randomLineSequence(rng, 500+rng.Intn(1500))
				var b StreamBuilder
				for _, a := range accs[i] {
					b.Access(a.addr, a.write)
				}
				streams[i] = b.Finish()
			}

			newH := func(i int) *Hierarchy {
				var l2 *Cache
				if set[i].l2 != nil {
					l2 = New(*set[i].l2)
				}
				return NewHierarchy(New(set[i].l1), l2, dram.NewRowMeter())
			}

			batched := make([]*Hierarchy, len(set))
			ref := make([]*Hierarchy, len(set))
			for i := range set {
				batched[i], ref[i] = newH(i), newH(i)
			}
			hs := NewHierarchySet(batched)
			for i := range streams {
				hs.ReplayStreamBatch(&streams[i])
				for _, h := range ref {
					replayReference(h, accs[i])
				}
				// Every member must be fully synced after every call, not
				// just at the end: phase snapshots read stats between
				// streams.
				for k := range set {
					if !equalCacheState(batched[k].L1, ref[k].L1) {
						t.Fatalf("set %d trial %d stream %d config %d: L1 state diverged", si, trial, i, k)
					}
					if ref[k].L2 != nil && !equalCacheState(batched[k].L2, ref[k].L2) {
						t.Fatalf("set %d trial %d stream %d config %d: L2 state diverged", si, trial, i, k)
					}
					mb := batched[k].Mem.(*dram.RowMeter)
					mr := ref[k].Mem.(*dram.RowMeter)
					if mb.Traffic() != mr.Traffic() || mb.RowStats() != mr.RowStats() {
						t.Fatalf("set %d trial %d stream %d config %d: memory traffic diverged:\nbatch     %+v %+v\nper-access %+v %+v",
							si, trial, i, k, mb.Traffic(), mb.RowStats(), mr.Traffic(), mr.RowStats())
					}
				}
			}
		}
	}
}

// TestReplayStreamBatchRandomGeometry fuzzes geometries themselves: random
// L1/L2 shapes, grouped however NewHierarchySet decides, must still match
// the per-access path exactly.
func TestReplayStreamBatchRandomGeometry(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	sizes := []int{16 << 10, 32 << 10, 64 << 10, 128 << 10}
	ways := []int{2, 4, 8}
	for trial := 0; trial < 15; trial++ {
		k := 2 + rng.Intn(6)
		l1s := make([]Config, k)
		l2s := make([]*Config, k)
		for i := 0; i < k; i++ {
			l1s[i] = Config{Name: "L1", Size: sizes[rng.Intn(len(sizes))], Ways: ways[rng.Intn(len(ways))]}
			if rng.Intn(2) == 0 {
				l2s[i] = &Config{Name: "LLC", Size: sizes[rng.Intn(len(sizes))] * 8, Ways: 8}
			}
		}
		accs := randomLineSequence(rng, 3000)
		var b StreamBuilder
		for _, a := range accs {
			b.Access(a.addr, a.write)
		}
		s := b.Finish()

		newH := func(i int) *Hierarchy {
			var l2 *Cache
			if l2s[i] != nil {
				l2 = New(*l2s[i])
			}
			return NewHierarchy(New(l1s[i]), l2, dram.NewRowMeter())
		}
		batched := make([]*Hierarchy, k)
		for i := range batched {
			batched[i] = newH(i)
		}
		NewHierarchySet(batched).ReplayStreamBatch(&s)
		for i := 0; i < k; i++ {
			ref := newH(i)
			replayReference(ref, accs)
			if !equalCacheState(batched[i].L1, ref.L1) {
				t.Fatalf("trial %d config %d (%+v): L1 state diverged", trial, i, l1s[i])
			}
			if ref.L2 != nil && !equalCacheState(batched[i].L2, ref.L2) {
				t.Fatalf("trial %d config %d: L2 state diverged", trial, i)
			}
			mb := batched[i].Mem.(*dram.RowMeter)
			mr := ref.Mem.(*dram.RowMeter)
			if mb.Traffic() != mr.Traffic() || mb.RowStats() != mr.RowStats() {
				t.Fatalf("trial %d config %d: memory traffic diverged", trial, i)
			}
		}
	}
}

// TestReplayStreamBatchLeavesNoFollowers checks that the fan-out lives only
// inside a batched walk: afterwards no member has followers, and live
// accesses on the former group lead reach only its own LLC and row meter.
func TestReplayStreamBatchLeavesNoFollowers(t *testing.T) {
	hs := make([]*Hierarchy, 3)
	for i := range hs {
		llc := Config{Name: "LLC", Size: (128 << 10) << i, Ways: 8}
		hs[i] = NewHierarchy(New(Config{Name: "L1D", Size: 64 << 10, Ways: 4}), New(llc), dram.NewRowMeter())
	}
	set := NewHierarchySet(hs)
	if set.Groups() != 1 {
		t.Fatalf("groups = %d, want 1", set.Groups())
	}
	var b StreamBuilder
	for _, a := range randomLineSequence(rand.New(rand.NewSource(5)), 2000) {
		b.Access(a.addr, a.write)
	}
	s := b.Finish()
	set.ReplayStreamBatch(&s)
	for i, h := range hs {
		if h.followers != nil {
			t.Fatalf("member %d keeps %d followers after the batch", i, len(h.followers))
		}
	}

	type state struct {
		llc     Stats
		traffic dram.Traffic
		rows    dram.RowStats
	}
	snap := func(h *Hierarchy) state {
		m := h.Mem.(*dram.RowMeter)
		return state{h.L2.Stats(), m.Traffic(), m.RowStats()}
	}
	before := make([]state, len(hs))
	for i, h := range hs {
		before[i] = snap(h)
	}
	// Lines far above anything the stream touched: every access misses the
	// lead's L1.
	hs[0].Load(1<<40, 4096)
	hs[0].Store(1<<40+1<<20, 4096)
	if snap(hs[0]) == before[0] {
		t.Fatalf("live accesses on the lead left its own LLC and meter untouched")
	}
	for i, h := range hs[1:] {
		if snap(h) != before[i+1] {
			t.Fatalf("live accesses on the lead reached member %d", i+1)
		}
	}
}

// TestHierarchySetGrouping pins the grouping rules: same geometry + same
// state share a group regardless of config name or what sits below the L1;
// different geometry — or same geometry in different state — do not.
func TestHierarchySetGrouping(t *testing.T) {
	mk := func(cfg Config, l2 *Config) *Hierarchy {
		var l2c *Cache
		if l2 != nil {
			l2c = New(*l2)
		}
		return NewHierarchy(New(cfg), l2c, dram.NewRowMeter())
	}
	a := mk(Config{Name: "L1D", Size: 64 << 10, Ways: 4}, &Config{Name: "LLC", Size: 256 << 10, Ways: 8})
	b := mk(Config{Name: "other", Size: 64 << 10, Ways: 4}, nil)
	c := mk(Config{Name: "PIM-L1", Size: 32 << 10, Ways: 4}, nil)
	if got := NewHierarchySet([]*Hierarchy{a, b, c}).Groups(); got != 2 {
		t.Fatalf("fresh {64K/4, 64K/4, 32K/4}: groups = %d, want 2", got)
	}

	// Warm one of the same-geometry pair: states differ, groups split.
	d := mk(Config{Name: "L1D", Size: 64 << 10, Ways: 4}, nil)
	d.access(0x1000, false)
	e := mk(Config{Name: "L1D", Size: 64 << 10, Ways: 4}, nil)
	if got := NewHierarchySet([]*Hierarchy{d, e}).Groups(); got != 2 {
		t.Fatalf("warm+fresh same geometry: groups = %d, want 2", got)
	}

	// Identically warmed states re-merge.
	f := mk(Config{Name: "L1D", Size: 64 << 10, Ways: 4}, nil)
	f.access(0x1000, false)
	if got := NewHierarchySet([]*Hierarchy{d, f}).Groups(); got != 1 {
		t.Fatalf("identically warmed: groups = %d, want 1", got)
	}
}

// TestHierarchySetPanics pins the constructor contract.
func TestHierarchySetPanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	expectPanic("empty", func() { NewHierarchySet(nil) })
	expectPanic("mixed line sizes", func() {
		a := NewHierarchy(New(Config{Name: "a", Size: 64 << 10, Ways: 4}), nil, dram.NewRowMeter())
		b := NewHierarchy(New(Config{Name: "b", Size: 64 << 10, Ways: 4, LineSize: 128}), nil, dram.NewRowMeter())
		NewHierarchySet([]*Hierarchy{a, b})
	})
}

// TestSpanHonorsLineSize pins the line-size alignment fix: a 128 B-line
// hierarchy must split a span into 128 B-aligned line accesses (previously
// the walk aligned to the global 64 B line size and could loop forever).
func TestSpanHonorsLineSize(t *testing.T) {
	cfg := Config{Name: "L1", Size: 64 << 10, Ways: 4, LineSize: 128}
	h := NewHierarchy(New(cfg), nil, dram.NewRowMeter())
	h.Load(192, 200) // bytes 192..391 -> lines 128, 256, 384 at 128 B granularity
	st := h.L1.Stats()
	if st.Accesses != 3 {
		t.Fatalf("accesses = %d, want 3", st.Accesses)
	}
	if !h.L1.Contains(128) || !h.L1.Contains(256) || !h.L1.Contains(384) {
		t.Fatalf("expected lines 128, 256 and 384 resident")
	}
}
