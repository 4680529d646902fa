package cache

import (
	"gopim/internal/dram"
)

// MemorySink receives line-granularity traffic that misses the whole cache
// hierarchy (demand fills and writebacks). Implementations are DRAM models.
type MemorySink interface {
	// ReadLine records a demand fill of one cache line from memory.
	ReadLine(addr uint64)
	// WriteLine records a writeback of one cache line to memory.
	WriteLine(addr uint64)
}

// Hierarchy models a one- or two-level cache in front of a memory sink and
// implements mem.Tracer, so it can be attached directly to an instrumented
// kernel. L2 may be nil (the PIM core has only an L1; a PIM accelerator's
// scratchpad buffer is modelled as its L1).
//
// The hierarchy is inclusive-enough for traffic purposes: L1 misses look up
// L2; L2 misses fetch from memory; dirty evictions propagate downward.
type Hierarchy struct {
	L1  *Cache
	L2  *Cache
	Mem MemorySink

	// rowMeter holds Mem's concrete type when it is the standard
	// *dram.RowMeter, so the per-line access path calls it directly
	// instead of through interface dispatch. Behaviour is identical.
	rowMeter *dram.RowMeter

	lineSize uint64

	// followers are the other members of this hierarchy's L1 group while a
	// HierarchySet walk leads with it: fill passes each L1 miss on to them.
	// Nil outside that walk, so a live Load or Store never fans out.
	followers []*Hierarchy
}

// NewHierarchy wires l1 (required), l2 (optional) and sink (required).
func NewHierarchy(l1, l2 *Cache, sink MemorySink) *Hierarchy {
	if l1 == nil || sink == nil {
		panic("cache: hierarchy needs an L1 and a memory sink")
	}
	h := &Hierarchy{L1: l1, L2: l2, Mem: sink, lineSize: uint64(l1.cfg.LineSize)}
	h.rowMeter, _ = sink.(*dram.RowMeter)
	return h
}

// Load implements mem.Tracer.
func (h *Hierarchy) Load(addr uint64, n int) { h.span(addr, n, false) }

// Store implements mem.Tracer.
func (h *Hierarchy) Store(addr uint64, n int) { h.span(addr, n, true) }

// LoadSpan records `rows` reads of rowBytes each: the first at addr, each
// subsequent one stride bytes later. It is exactly equivalent to the loop
//
//	for r := 0; r < rows; r++ { h.Load(addr + r*stride, rowBytes) }
//
// — same line events in the same order, so all modeled statistics are
// bit-identical — but costs one call for a whole rectangle (a bitmap rect,
// a texture tile, a packed panel), which matters in kernels that would
// otherwise issue one call per row or per element.
func (h *Hierarchy) LoadSpan(addr uint64, rowBytes, rows int, stride uint64) {
	for r := 0; r < rows; r++ {
		h.span(addr, rowBytes, false)
		addr += stride
	}
}

// StoreSpan is LoadSpan for writes.
func (h *Hierarchy) StoreSpan(addr uint64, rowBytes, rows int, stride uint64) {
	for r := 0; r < rows; r++ {
		h.span(addr, rowBytes, true)
		addr += stride
	}
}

func (h *Hierarchy) span(addr uint64, n int, write bool) {
	if n <= 0 {
		return
	}
	// Align to this hierarchy's own line size (cache.New enforces a power
	// of two), not the global mem.LineSize: for 128 B lines a 64 B-aligned
	// start would walk misaligned line addresses. Identical at 64 B.
	mask := h.lineSize - 1
	first := addr &^ mask
	last := (addr + uint64(n) - 1) &^ mask
	for line := first; ; line += h.lineSize {
		h.access(line, write)
		if line == last {
			break
		}
	}
}

func (h *Hierarchy) access(line uint64, write bool) {
	hit, wb, wbAddr := h.L1.Access(line, write)
	if !hit {
		h.fill(line, wb, wbAddr)
	}
}

// fill handles an L1 miss: propagate the evicted dirty line (if any)
// downward, then fetch the demanded line from L2 or memory. A writeback
// can only accompany a miss, so hit handling never reaches here. The same
// outcome then fills each follower's own lower levels.
func (h *Hierarchy) fill(line uint64, wb bool, wbAddr uint64) {
	if wb {
		// Dirty L1 eviction: install in L2 (or write to memory directly).
		if h.L2 != nil {
			_, wb2, wb2Addr := h.L2.Access(wbAddr, true)
			if wb2 {
				h.writeLine(wb2Addr)
			}
		} else {
			h.writeLine(wbAddr)
		}
	}
	if h.L2 == nil {
		h.readLine(line)
	} else {
		hit2, wb2, wb2Addr := h.L2.Access(line, false)
		if wb2 {
			h.writeLine(wb2Addr)
		}
		if !hit2 {
			h.readLine(line)
		}
	}
	for _, f := range h.followers {
		f.fill(line, wb, wbAddr)
	}
}

func (h *Hierarchy) readLine(addr uint64) {
	if h.rowMeter != nil {
		h.rowMeter.ReadLine(addr)
		return
	}
	h.Mem.ReadLine(addr)
}

func (h *Hierarchy) writeLine(addr uint64) {
	if h.rowMeter != nil {
		h.rowMeter.WriteLine(addr)
		return
	}
	h.Mem.WriteLine(addr)
}

// Reset clears both cache levels. The memory sink is left untouched.
func (h *Hierarchy) Reset() {
	h.L1.Reset()
	if h.L2 != nil {
		h.L2.Reset()
	}
}
