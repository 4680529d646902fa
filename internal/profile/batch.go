package profile

import (
	"gopim/internal/cache"
)

// CtxBatch drives K replay contexts — one per hardware config — through one
// compiled trace walk. The counter entry points fan out to every context
// (each prices span refs at its own scalar/vector widths), and ReplayLines
// walks the shared line stream once per L1 group via cache.HierarchySet
// instead of once per config. All configs must share one line size: compiled line streams
// are per-line-size, so callers group configs by line size first.
//
// Every member context is left exactly as a serial replay would leave it,
// so Finish returns the same (Profile, phase map) per config as K
// independent replays.
type CtxBatch struct {
	ctxs []*Ctx
	set  *cache.HierarchySet
}

// NewCtxBatch builds fresh contexts for hws and groups their hierarchies
// for batched stream replay. It panics if the configs do not share one line
// size (config sets are assembled programmatically; cache.NewHierarchySet
// enforces the invariant).
func NewCtxBatch(hws []Hardware) *CtxBatch {
	ctxs := make([]*Ctx, len(hws))
	hiers := make([]*cache.Hierarchy, len(hws))
	for i, hw := range hws {
		ctxs[i] = NewCtx(hw)
		hiers[i] = ctxs[i].hier
	}
	return &CtxBatch{ctxs: ctxs, set: cache.NewHierarchySet(hiers)}
}

// SetPhase starts a phase on every context (snapshotting per-config stats
// at the boundary, exactly as serial replay does).
func (b *CtxBatch) SetPhase(name string) {
	for _, c := range b.ctxs {
		c.SetPhase(name)
	}
}

// AddCounters bulk-adds hardware-independent counters to every context.
func (b *CtxBatch) AddCounters(ops, simd, refs uint64) {
	for _, c := range b.ctxs {
		c.AddCounters(ops, simd, refs)
	}
}

// AddSpanRefs prices one span-ref group on every context at that context's
// own scalar or vector reference width.
func (b *CtxBatch) AddSpanRefs(rowBytes, rows uint64, vector bool) {
	for _, c := range b.ctxs {
		c.AddSpanRefs(rowBytes, rows, vector)
	}
}

// ReplayLines drives the compiled line stream through every context's
// hierarchy and row meter (see cache.HierarchySet.ReplayStreamBatch).
// Counters are unaffected; pair with AddCounters/AddSpanRefs to replay a
// full trace segment.
func (b *CtxBatch) ReplayLines(s *cache.LineStream) {
	b.set.ReplayStreamBatch(s)
}

// Finish closes every context and returns the per-config totals and phase
// maps, index-aligned with the hws given to NewCtxBatch.
func (b *CtxBatch) Finish() ([]Profile, []map[string]Profile) {
	profs := make([]Profile, len(b.ctxs))
	phases := make([]map[string]Profile, len(b.ctxs))
	for i, c := range b.ctxs {
		profs[i], phases[i] = c.Finish()
	}
	return profs, phases
}
