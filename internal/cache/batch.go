// Batched multi-config stream replay: one LineStream walk driving K cache
// hierarchies.
//
// Hierarchy.ReplayStream prices one hardware config per walk, so a K-config
// sweep decodes every RLE run, re-derives the per-run bookkeeping, and
// touches memory K times. HierarchySet amortizes all of that: the outer loop
// decodes each run exactly once, and the inner loop drives the configs
// config-major — each config's tag words are walked for the whole run before
// the next config's, instead of interleaving configs per access — which
// keeps one cache's tag array hot while it is being scanned.
//
// The second, larger lever is L1 sharing. An L1's state evolution under a
// line-access sequence depends only on its geometry (sets, ways, line size),
// never on what sits below it — Hierarchy.fill consumes the L1's outcome
// (miss + optional writeback) without reading L1 state. So hierarchies whose
// L1s have the same geometry and start in the same state evolve their L1s
// through byte-identical states forever. HierarchySet groups such members,
// walks one lead L1 per group, fans each miss's fill out to every member's
// own L2/memory, and copies the lead's final L1 state onto the other members
// when the walk returns (callers read L1 stats only between walks, at phase
// boundaries). A typical sweep family — one L1 geometry against many LLC
// geometries — then pays the L1 tag scan once for the whole family.
package cache

// HierarchySet replays compiled line streams into K hierarchies at once.
// All hierarchies must share one line size (compiled streams are
// per-line-size); build one set per line-size group. The set holds live
// references: between ReplayStreamBatch calls every member hierarchy is in
// exactly the state K independent ReplayStream walks would have left it in,
// so stats can be read (and phases snapshotted) as usual.
type HierarchySet struct {
	groups []l1Group
}

// l1Group is a set of hierarchies whose L1s share geometry and state.
// lead is members[0].L1: it is the only L1 walked during a batch replay;
// the other members' L1s are brought up to date by syncState afterwards.
type l1Group struct {
	lead    *Cache
	members []*Hierarchy
}

// NewHierarchySet groups hs for batched replay. It panics if the
// hierarchies do not share one line size or hs is empty, since config sets
// are assembled programmatically (mirroring cache.New's contract).
// Hierarchies whose L1s share geometry but not current state fall into
// separate groups — each group's walk is then exactly the serial walk, so
// grouping is always sound, just faster when states coincide (the common
// case: freshly built replay contexts start from all-zero state).
func NewHierarchySet(hs []*Hierarchy) *HierarchySet {
	if len(hs) == 0 {
		panic("cache: HierarchySet needs at least one hierarchy")
	}
	s := &HierarchySet{}
	for _, h := range hs {
		if h.lineSize != hs[0].lineSize {
			panic("cache: HierarchySet hierarchies must share one line size")
		}
		joined := false
		for gi := range s.groups {
			g := &s.groups[gi]
			if sameGeometry(g.lead, h.L1) && sameState(g.lead, h.L1) {
				g.members = append(g.members, h)
				joined = true
				break
			}
		}
		if !joined {
			s.groups = append(s.groups, l1Group{lead: h.L1, members: []*Hierarchy{h}})
		}
	}
	return s
}

// Groups returns how many distinct L1 groups the set holds (for tests and
// diagnostics: 1 means the whole set shares a single L1 walk).
func (s *HierarchySet) Groups() int { return len(s.groups) }

// ReplayStreamBatch drives one compiled line stream through every member
// hierarchy, leaving each in the byte-identical state of an independent
// Hierarchy.ReplayStream walk. Each RLE run is decoded once and applied
// config-major: the full run against group 0's caches, then group 1's, and
// so on — run decode and per-run bookkeeping are paid per run, not per
// (run, config). A loop runs to completion against one group before the
// next, each group leaving the walk when its own lead L1 hits throughout
// an iteration (Hierarchy.loop).
func (s *HierarchySet) ReplayStreamBatch(ls *LineStream) {
	prog := ls.prog
	for i := 0; i+1 < len(prog); i += 2 {
		w0, addr := prog[i], prog[i+1]
		n := w0 >> 33
		delta := int64(int32(uint32(w0 >> 1)))
		write := w0&1 != 0
		for gi := range s.groups {
			g := &s.groups[gi]
			switch {
			case n == 0:
				g.loop(loopBody(prog, i), addr)
			case delta == 0:
				g.accessRepeat(addr, write, n)
			default:
				g.accessRun(addr, write, n, delta)
			}
		}
	}
	s.syncState()
}

// syncState copies each group lead's L1 state onto the other members,
// restoring the invariant that every member hierarchy individually looks
// serially replayed. Runs once per stream, not per run.
func (s *HierarchySet) syncState() {
	for gi := range s.groups {
		g := &s.groups[gi]
		for _, h := range g.members[1:] {
			h.L1.copyStateFrom(g.lead)
		}
	}
}

// fill fans one L1 miss's consequences out to every member's own lower
// levels. Group members share L1 behaviour by construction, so the same
// (miss, writeback) outcome applies to each; L2 contents and memory traffic
// stay fully per-config.
func (g *l1Group) fill(line uint64, wb bool, wbAddr uint64) {
	for _, h := range g.members {
		h.fill(line, wb, wbAddr)
	}
}

// loop is Hierarchy.loop against the group: the lead L1 walks extra more
// iterations of body until one misses nowhere, and counts the rest in one
// step.
func (g *l1Group) loop(body []uint64, extra uint64) {
	l1 := g.lead
	for ; extra > 0; extra-- {
		misses := l1.stats.Misses
		for i := 0; i < len(body); i += 2 {
			w0, addr := body[i], body[i+1]
			n := w0 >> 33
			delta := int64(int32(uint32(w0 >> 1)))
			if delta == 0 {
				g.accessRepeat(addr, w0&1 != 0, n)
			} else {
				g.accessRun(addr, w0&1 != 0, n, delta)
			}
		}
		if l1.stats.Misses == misses {
			l1.countHits(body, extra-1)
			return
		}
	}
}

// accessRepeat is Hierarchy.accessRepeat against the group: the lead L1
// absorbs the n accesses in O(1), and a first-access miss fills every
// member.
func (g *l1Group) accessRepeat(addr uint64, write bool, n uint64) {
	hit, wb, wbAddr := g.lead.AccessRepeat(addr, write, n)
	if !hit {
		g.fill(addr, wb, wbAddr)
	}
}

// accessRun is Hierarchy.accessRun against the group: the lead L1 walks
// the run, and each miss fills every member.
func (g *l1Group) accessRun(addr uint64, write bool, n uint64, delta int64) {
	l1 := g.lead
	l1.count(write, n)
	for ; n > 0; n-- {
		if hit, wb, wbAddr := l1.lookup(addr>>l1.lineBits, write); !hit {
			g.fill(addr, wb, wbAddr)
		}
		addr += uint64(delta)
	}
}
