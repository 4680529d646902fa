// Compiled line-stream replay: the fast half of capture-once/replay-many.
//
// A trace's effect on a replay context splits cleanly in two:
//
//   - The line-granularity cache access sequence. Which lines a span
//     touches, in which order, read or write, is a pure function of the
//     recorded geometry and the line size — capacity and associativity
//     never enter — so it is identical for every hardware config sharing a
//     line size.
//   - The counters. Ops/SIMD and explicit Refs are hardware-independent
//     sums; span-derived MemRefs depend only on the replaying hardware's
//     scalar/vector reference widths and the span's (rowBytes, rows).
//
// compile therefore lowers the packed span events once per line size into
// per-phase segments: a run-length-encoded cache.LineStream (consecutive
// same-line accesses collapse to repeat triples, constant-stride line
// walks to stride runs, groups of runs repeated back to back to loops),
// pre-summed hardware-independent counters, and
// span-ref groups aggregated by (rowBytes, width class). Replaying a
// segment is then SetPhase + AddCounters + O(groups) ref pricing + one
// line-stream walk per L1 group (Hierarchy.ReplayStream) — the per-event
// decode switch, buffer translation, and per-row line splitting all happen
// exactly once per trace instead of once per replay. Counters commute with
// memory events inside a phase (they only meet at phase-boundary
// snapshots), so moving them to the segment head is exact.
package trace

import (
	"fmt"
	"sync"

	"gopim/internal/cache"
	"gopim/internal/mem"
	"gopim/internal/profile"
)

// compiled is one trace lowered for one line size.
type compiled struct {
	segs []segment
}

// segment covers the events between two phase transitions.
type segment struct {
	phase           string
	ops, simd, refs uint64 // hardware-independent counter sums
	scalar, vector  []refGroup
	stream          cache.LineStream
}

// refGroup aggregates the rows of every span in a segment sharing one
// rowBytes, so replay prices MemRefs per group instead of per event.
type refGroup struct{ rowBytes, rows uint64 }

// addRows accumulates into the group for rowBytes. Segments see a handful
// of distinct row widths, so a linear scan beats a map and keeps
// first-use order (deterministic: it derives from the trace).
func addRows(groups []refGroup, rowBytes, rows uint64) []refGroup {
	for i := range groups {
		if groups[i].rowBytes == rowBytes {
			groups[i].rows += rows
			return groups
		}
	}
	return append(groups, refGroup{rowBytes, rows})
}

// compiledEntry memoizes one line size's compilation with single-flight
// semantics, mirroring trace.Cache's once-per-key pattern.
type compiledEntry struct {
	once sync.Once
	c    *compiled
}

// compile lowers the trace for lineSize, memoizing on the Trace so every
// hardware config with that line size — and every replay — shares one
// compilation. Safe for concurrent use.
func (t *Trace) compile(lineSize uint64) *compiled {
	t.mu.Lock()
	if t.compiledBy == nil {
		t.compiledBy = map[uint64]*compiledEntry{}
	}
	e, ok := t.compiledBy[lineSize]
	if !ok {
		e = &compiledEntry{}
		t.compiledBy[lineSize] = e
	}
	t.mu.Unlock()
	e.once.Do(func() {
		sp := t.Obs.Span("phase.compile")
		e.c = t.compileOnce(lineSize)
		sp.End()
	})
	return e.c
}

// compileOnce walks the packed event stream once, expanding spans to line
// accesses in exactly the order the interpreter (and the live span entry
// points) issue them.
func (t *Trace) compileOnce(lineSize uint64) *compiled {
	c := &compiled{segs: []segment{{phase: ""}}}
	seg := &c.segs[0]
	var b cache.StreamBuilder

	// span mirrors Hierarchy.span: first..last aligned to the compilation's
	// line size (not the global 64 B mem.LineSize — at 128 B lines a 64 B
	// alignment would emit misaligned line addresses), stepped by the line
	// size. Identical at 64 B.
	mask := lineSize - 1
	span := func(addr uint64, n int, write bool) {
		first := addr &^ mask
		last := (addr + uint64(n) - 1) &^ mask
		for line := first; line <= last; line += lineSize {
			b.Access(line, write)
		}
	}

	ev := t.eventWords()
	for i := 0; i < len(ev); {
		w := ev[i]
		switch op := w & 0xff; op {
		case opPhase:
			seg.stream = b.Finish()
			c.segs = append(c.segs, segment{phase: t.phases[w>>8]})
			seg = &c.segs[len(c.segs)-1]
			i++
		case opCount:
			seg.ops += ev[i+1]
			seg.simd += ev[i+2]
			seg.refs += ev[i+3]
			i += 4
		case opSpan0 + uint64(profile.OpCopyV), opSpan0 + uint64(profile.OpBlendV):
			sa := t.bases[w>>8&(maxID-1)] + ev[i+1]
			da := t.bases[w>>32&(maxID-1)] + ev[i+2]
			rowBytes, rows := int(ev[i+3]&(max32-1)), int(ev[i+3]>>32)
			srcStride, dstStride := ev[i+4]&(max32-1), ev[i+4]>>32
			perRow := uint64(2)
			blend := op == opSpan0+uint64(profile.OpBlendV)
			if blend {
				perRow = 3
			}
			seg.vector = addRows(seg.vector, uint64(rowBytes), perRow*uint64(rows))
			for r := 0; r < rows; r++ {
				span(sa, rowBytes, false)
				if blend {
					span(da, rowBytes, false)
				}
				span(da, rowBytes, true)
				sa += srcStride
				da += dstStride
			}
			i += 5
		default:
			addr := t.bases[w>>8&(maxID-1)] + ev[i+1]
			rowBytes := int(w >> 32)
			rows, stride := int(ev[i+2]&(max32-1)), ev[i+2]>>32
			var write, vector bool
			switch profile.AccessOp(op - opSpan0) {
			case profile.OpLoad:
			case profile.OpStore:
				write = true
			case profile.OpLoadV:
				vector = true
			case profile.OpStoreV:
				write, vector = true, true
			default:
				panic(fmt.Sprintf("trace: corrupt event opcode %d at word %d", op, i))
			}
			if vector {
				seg.vector = addRows(seg.vector, uint64(rowBytes), uint64(rows))
			} else {
				seg.scalar = addRows(seg.scalar, uint64(rowBytes), uint64(rows))
			}
			for r := 0; r < rows; r++ {
				span(addr, rowBytes, write)
				addr += stride
			}
			i += 3
		}
	}
	seg.stream = b.Finish()
	return c
}

// Compiled lowers the trace for lineSize ahead of use (memoized on the
// Trace, single-flight, shared by every replay), so no later replay at that
// line size pays for compilation.
func (t *Trace) Compiled(lineSize uint64) { t.compile(lineSize) }

// BatchResult is one hardware config's replay outcome.
type BatchResult struct {
	Profile profile.Profile
	Phases  map[string]profile.Profile
}

// ReplayBatch replays the trace against all of hws in one batched walk (see
// replay), compiling it for their line size first if needed. Results are
// index-aligned with hws and byte-identical to K independent Trace.Replay
// calls. The configs must share one line size — compiled streams are
// per-line-size — and ReplayBatch panics otherwise (cache.NewHierarchySet's
// contract); callers with mixed line sizes group configs by line size and
// call once per group.
func (t *Trace) ReplayBatch(hws []profile.Hardware) []BatchResult {
	if len(hws) == 0 {
		return nil
	}
	c := t.compile(hwLineSize(hws[0]))
	defer t.Obs.Span("phase.replay.batch").End()
	return c.replay(hws)
}

// hwLineSize returns the line size hw's caches use.
func hwLineSize(hw profile.Hardware) uint64 {
	if hw.L1.LineSize == 0 {
		return mem.LineSize
	}
	return uint64(hw.L1.LineSize)
}

// replay drives the compiled form through fresh contexts for hws, which
// must share its line size: per segment it fans the pre-summed counters
// and span-ref groups out to every config's context, then drives the
// segment's line stream through all K hierarchies at once
// (profile.CtxBatch, cache.HierarchySet), decoding each run once per L1
// group instead of once per config.
func (c *compiled) replay(hws []profile.Hardware) []BatchResult {
	batch := profile.NewCtxBatch(hws)
	for i := range c.segs {
		seg := &c.segs[i]
		batch.SetPhase(seg.phase)
		batch.AddCounters(seg.ops, seg.simd, seg.refs)
		for _, g := range seg.scalar {
			batch.AddSpanRefs(g.rowBytes, g.rows, false)
		}
		for _, g := range seg.vector {
			batch.AddSpanRefs(g.rowBytes, g.rows, true)
		}
		batch.ReplayLines(&seg.stream)
	}
	profs, phases := batch.Finish()
	out := make([]BatchResult, len(hws))
	for i := range out {
		out[i] = BatchResult{Profile: profs[i], Phases: phases[i]}
	}
	return out
}

// CompiledWords returns the size in 8-byte words of the compiled line
// streams for lineSize (compiling if needed) — for tests and size
// accounting alongside Trace.Words.
func (t *Trace) CompiledWords(lineSize uint64) int {
	c := t.compile(lineSize)
	n := 0
	for i := range c.segs {
		n += c.segs[i].stream.Words()
	}
	return n
}
