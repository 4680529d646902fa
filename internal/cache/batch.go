// Batched multi-config stream replay: one LineStream walk driving K cache
// hierarchies.
//
// An L1's state evolution under a line-access sequence depends only on its
// geometry (sets, ways, line size), never on what sits below it —
// Hierarchy.fill consumes the L1's outcome (miss + optional writeback)
// without reading L1 state. So hierarchies whose L1s have the same geometry
// and start in the same state evolve their L1s through byte-identical
// states forever. HierarchySet groups such members and walks each group's
// lead with the lead's own stream walker (Hierarchy.ReplayStream): the
// stream is decoded and the L1 tags are scanned once per group, and the
// lead's fill passes each miss on to every other member's own L2 and
// memory. The lead's final L1 state is copied onto the other members when
// the walk returns (callers read L1 stats only between walks, at phase
// boundaries). A typical sweep family — one L1 geometry against many LLC
// geometries — then pays the L1 walk once for the whole family.
package cache

// HierarchySet replays compiled line streams into K hierarchies at once.
// All hierarchies must share one line size (compiled streams are
// per-line-size); build one set per line-size group. The set holds live
// references: between ReplayStreamBatch calls every member hierarchy is in
// exactly the state K independent ReplayStream walks would have left it in,
// so stats can be read (and phases snapshotted) as usual.
type HierarchySet struct {
	// groups holds hierarchies whose L1s share geometry and state. A
	// group's first member leads its walk; the other members' L1s are
	// brought up to date by syncState afterwards.
	groups [][]*Hierarchy
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
		for gi, g := range s.groups {
			if sameGeometry(g[0].L1, h.L1) && sameState(g[0].L1, h.L1) {
				s.groups[gi] = append(g, h)
				joined = true
				break
			}
		}
		if !joined {
			s.groups = append(s.groups, []*Hierarchy{h})
		}
	}
	return s
}

// Groups returns how many distinct L1 groups the set holds (for tests and
// diagnostics: 1 means the whole set shares a single L1 walk).
func (s *HierarchySet) Groups() int { return len(s.groups) }

// ReplayStreamBatch drives one compiled line stream through every member
// hierarchy, leaving each in the byte-identical state of an independent
// Hierarchy.ReplayStream walk. Each group in turn walks the whole stream:
// its lead runs its own stream walker, loops included (the lead's L1
// decides when an iteration hits throughout), with the other members as
// followers of its fill. Walking group after group is exact because every
// hierarchy belongs to exactly one group and groups share no cache, meter
// or counter; within a group each miss still fills the lead first and then
// the members in order.
func (s *HierarchySet) ReplayStreamBatch(ls *LineStream) {
	for _, g := range s.groups {
		lead := g[0]
		lead.followers = g[1:]
		lead.ReplayStream(ls)
		lead.followers = nil
	}
	s.syncState()
}

// syncState copies each group lead's L1 state onto the other members,
// restoring the invariant that every member hierarchy individually looks
// serially replayed. Runs once per stream, not per run.
func (s *HierarchySet) syncState() {
	for _, g := range s.groups {
		for _, h := range g[1:] {
			h.L1.copyStateFrom(g[0].L1)
		}
	}
}
