// Package profile implements the paper's workload characterization
// methodology (§3.1): kernels do real work on simulated buffers while
// reporting operation counts and memory accesses; the accesses flow through
// a cache hierarchy into a DRAM traffic meter, yielding the counter values
// (instructions, MPKI, off-chip traffic) that drive the energy and timing
// models.
package profile

import (
	"sort"

	"gopim/internal/cache"
	"gopim/internal/dram"
	"gopim/internal/mem"
)

// Profile is the set of hardware-counter-like values collected for one
// kernel execution (or one phase of it).
type Profile struct {
	Ops     uint64 // scalar ALU/branch instructions
	SIMDOps uint64 // vector ALU instructions
	MemRefs uint64 // load/store instructions

	L1  cache.Stats
	LLC cache.Stats
	Mem dram.Traffic
	// Rows tracks DRAM row-buffer behaviour of the memory traffic.
	Rows dram.RowStats
}

// Instructions returns the total dynamic instruction count.
func (p Profile) Instructions() uint64 { return p.Ops + p.SIMDOps + p.MemRefs }

// LLCMPKI returns last-level-cache misses per kilo-instruction, the paper's
// memory-intensity criterion (PIM candidates have MPKI > 10).
func (p Profile) LLCMPKI() float64 { return p.LLC.MPKI(p.Instructions()) }

// Add returns the field-wise sum of p and other.
func (p Profile) Add(other Profile) Profile {
	return Profile{
		Ops:     p.Ops + other.Ops,
		SIMDOps: p.SIMDOps + other.SIMDOps,
		MemRefs: p.MemRefs + other.MemRefs,
		L1:      addStats(p.L1, other.L1),
		LLC:     addStats(p.LLC, other.LLC),
		Mem:     dram.Traffic{BytesRead: p.Mem.BytesRead + other.Mem.BytesRead, BytesWritten: p.Mem.BytesWritten + other.Mem.BytesWritten},
		Rows: dram.RowStats{
			Accesses: p.Rows.Accesses + other.Rows.Accesses,
			RowHits:  p.Rows.RowHits + other.Rows.RowHits,
			RowOpens: p.Rows.RowOpens + other.Rows.RowOpens,
		},
	}
}

// ScaleInt returns p with every counter multiplied by n, for extrapolating
// a profiled unit of work (e.g. one network layer) that repeats n times.
func (p Profile) ScaleInt(n uint64) Profile {
	return Profile{
		Ops:     p.Ops * n,
		SIMDOps: p.SIMDOps * n,
		MemRefs: p.MemRefs * n,
		L1:      scaleStats(p.L1, n),
		LLC:     scaleStats(p.LLC, n),
		Mem: dram.Traffic{
			BytesRead:    p.Mem.BytesRead * n,
			BytesWritten: p.Mem.BytesWritten * n,
		},
		Rows: dram.RowStats{
			Accesses: p.Rows.Accesses * n,
			RowHits:  p.Rows.RowHits * n,
			RowOpens: p.Rows.RowOpens * n,
		},
	}
}

func scaleStats(s cache.Stats, n uint64) cache.Stats {
	return cache.Stats{
		Accesses:   s.Accesses * n,
		Hits:       s.Hits * n,
		Misses:     s.Misses * n,
		Writebacks: s.Writebacks * n,
		Reads:      s.Reads * n,
		Writes:     s.Writes * n,
	}
}

func addStats(a, b cache.Stats) cache.Stats {
	return cache.Stats{
		Accesses:   a.Accesses + b.Accesses,
		Hits:       a.Hits + b.Hits,
		Misses:     a.Misses + b.Misses,
		Writebacks: a.Writebacks + b.Writebacks,
		Reads:      a.Reads + b.Reads,
		Writes:     a.Writes + b.Writes,
	}
}

func subStats(a, b cache.Stats) cache.Stats {
	return cache.Stats{
		Accesses:   a.Accesses - b.Accesses,
		Hits:       a.Hits - b.Hits,
		Misses:     a.Misses - b.Misses,
		Writebacks: a.Writebacks - b.Writebacks,
		Reads:      a.Reads - b.Reads,
		Writes:     a.Writes - b.Writes,
	}
}

func sub(a, b Profile) Profile {
	return Profile{
		Ops:     a.Ops - b.Ops,
		SIMDOps: a.SIMDOps - b.SIMDOps,
		MemRefs: a.MemRefs - b.MemRefs,
		L1:      subStats(a.L1, b.L1),
		LLC:     subStats(a.LLC, b.LLC),
		Mem: dram.Traffic{
			BytesRead:    a.Mem.BytesRead - b.Mem.BytesRead,
			BytesWritten: a.Mem.BytesWritten - b.Mem.BytesWritten,
		},
		Rows: dram.RowStats{
			Accesses: a.Rows.Accesses - b.Rows.Accesses,
			RowHits:  a.Rows.RowHits - b.Rows.RowHits,
			RowOpens: a.Rows.RowOpens - b.Rows.RowOpens,
		},
	}
}

// Hardware describes the memory system a kernel is profiled against.
type Hardware struct {
	Name string
	L1   cache.Config
	L2   *cache.Config // nil when the engine has no shared LLC (PIM logic)

	// ScalarRef and VectorRef are the widths, in bytes, of one scalar and
	// one vector memory reference. Zero values default to 8 and 16.
	ScalarRef int
	VectorRef int
}

// SoC returns the baseline SoC core configuration (paper Table 1: 64 kB
// 4-way private L1, 2 MB 8-way shared L2, 64 B lines).
func SoC() Hardware {
	l2 := cache.Config{Name: "LLC", Size: 2 << 20, Ways: 8}
	return Hardware{
		Name: "CPU-Only",
		L1:   cache.Config{Name: "L1D", Size: 64 << 10, Ways: 4},
		L2:   &l2,
	}
}

// PIMCore returns the PIM core configuration (paper Table 1: 32 kB 4-way L1,
// no LLC, 16-byte (4x32-bit) SIMD references).
func PIMCore() Hardware {
	return Hardware{
		Name: "PIM-Core",
		L1:   cache.Config{Name: "PIM-L1", Size: 32 << 10, Ways: 4},
	}
}

// PIMAcc returns the PIM accelerator configuration: a 32 kB scratchpad
// buffer, modelled as a small fully-streaming cache, no LLC.
func PIMAcc() Hardware {
	return Hardware{
		Name: "PIM-Acc",
		L1:   cache.Config{Name: "PIM-Buf", Size: 32 << 10, Ways: 8},
	}
}

// Kernel is a unit of instrumented work.
type Kernel interface {
	// Name identifies the kernel in reports.
	Name() string
	// Run performs the kernel's real computation, reporting operations and
	// memory accesses through ctx.
	Run(ctx *Ctx)
}

// KernelFunc adapts a function to the Kernel interface.
type KernelFunc struct {
	KernelName string
	// Key, when non-empty, uniquely identifies the kernel's work: the name
	// plus every parameter that affects the instrumentation stream it emits
	// (sizes, iteration counts, input content). The trace cache memoizes on
	// it; kernels with an empty Key always execute directly.
	Key string
	Fn  func(*Ctx)
}

// Name implements Kernel.
func (k KernelFunc) Name() string { return k.KernelName }

// Run implements Kernel.
func (k KernelFunc) Run(ctx *Ctx) { k.Fn(ctx) }

// CacheKey implements Keyed.
func (k KernelFunc) CacheKey() string { return k.Key }

// Keyed is implemented by kernels whose instrumentation stream is a pure
// function of a stable identity string, making them safe to memoize.
type Keyed interface {
	CacheKey() string
}

// KeyOf returns the kernel's cache key, or "" if the kernel does not
// declare one (and must therefore run directly every time).
func KeyOf(k Kernel) string {
	if kk, ok := k.(Keyed); ok {
		return kk.CacheKey()
	}
	return ""
}

// Runner is the signature shared by Run and trace-cache-backed variants,
// letting instrumentation consumers (e.g. per-layer network profiling) be
// parameterized over how kernels execute.
type Runner func(hw Hardware, kernel Kernel) (Profile, map[string]Profile)

// Run profiles kernel on hw and returns the total profile together with
// per-phase profiles (keyed by the phase labels the kernel set; kernels that
// never call SetPhase produce a single phase named "" in the map).
func Run(hw Hardware, kernel Kernel) (Profile, map[string]Profile) {
	ctx := NewCtx(hw)
	kernel.Run(ctx)
	return ctx.Finish()
}

// AccessOp classifies one recorded memory event for trace capture.
type AccessOp uint8

// Access operations recorded through TraceSink. The scalar/vector split
// must be preserved in the trace because the replay hardware's reference
// widths, not the recording hardware's, determine MemRefs on replay.
const (
	OpLoad   AccessOp = iota // scalar-width read (Load / LoadSpan)
	OpStore                  // scalar-width write (Store / StoreSpan)
	OpLoadV                  // vector-width read (LoadV / LoadSpanV)
	OpStoreV                 // vector-width write (StoreV / StoreSpanV)
	OpCopyV                  // CopySpanV: per-row read src, write dst
	OpBlendV                 // BlendSpanV: per-row read src, read dst, write dst
)

// TraceSink receives the instrumentation stream of one kernel execution.
// Events arrive in program order, after the Ctx guard conditions (so a
// recorded event always had an effect), and carry raw byte geometry —
// never derived reference counts, which are hardware-dependent.
type TraceSink interface {
	// Phase marks a phase transition (only called when the phase changes).
	Phase(name string)
	// Count records Ops/SIMD/Refs counter increments.
	Count(ops, simd, refs uint64)
	// Span records a strided access rectangle: rows of rowBytes each,
	// stride bytes apart, starting at off in b. Single accesses are
	// recorded as rows=1, stride=0.
	Span(op AccessOp, b *mem.Buffer, off, rowBytes, rows, stride int)
	// Span2 records a two-buffer rectangle (copy or blend).
	Span2(op AccessOp, src *mem.Buffer, srcOff int, dst *mem.Buffer, dstOff int, rowBytes, rows, srcStride, dstStride int)
}

// Record profiles kernel on hw exactly like Run while streaming every
// instrumentation event into sink.
func Record(hw Hardware, kernel Kernel, sink TraceSink) (Profile, map[string]Profile) {
	ctx := NewCtx(hw)
	ctx.sink = sink
	kernel.Run(ctx)
	return ctx.Finish()
}

// Ctx is the instrumentation context handed to kernels. It owns the
// simulated address space, the cache hierarchy, and the operation counters.
type Ctx struct {
	Space *mem.Space

	hier  *cache.Hierarchy
	meter *dram.RowMeter

	scalarRef uint64
	vectorRef uint64

	ops, simd, refs uint64

	phase      string
	phaseStack []string
	phaseOrder []string
	phases     map[string]Profile
	lastSnap   Profile

	// sink, when non-nil, receives every instrumentation event (set by
	// Record; nil for Run and for replays).
	sink TraceSink
}

// NewCtx builds a fresh context for hw.
func NewCtx(hw Hardware) *Ctx {
	// The meter's byte accounting follows the hierarchy's line size (one
	// fill or writeback moves one line); identical to the historical
	// accounting for every 64 B-line config.
	meter := dram.NewRowMeterLine(hw.L1.LineSize)
	l1 := cache.New(hw.L1)
	var l2 *cache.Cache
	if hw.L2 != nil {
		l2 = cache.New(*hw.L2)
	}
	scalar := hw.ScalarRef
	if scalar == 0 {
		scalar = 8
	}
	vector := hw.VectorRef
	if vector == 0 {
		vector = 16
	}
	return &Ctx{
		Space:     mem.NewSpace(),
		hier:      cache.NewHierarchy(l1, l2, meter),
		meter:     meter,
		scalarRef: uint64(scalar),
		vectorRef: uint64(vector),
		phases:    map[string]Profile{},
	}
}

// Alloc reserves a named buffer in the simulated address space.
func (c *Ctx) Alloc(name string, n int) *mem.Buffer { return c.Space.Alloc(name, n) }

// SetPhase attributes subsequent counters to the named phase (e.g. a
// function name such as "texture tiling"). Phases may be revisited; their
// counters accumulate.
func (c *Ctx) SetPhase(name string) {
	if name == c.phase {
		return
	}
	if c.sink != nil {
		c.sink.Phase(name)
	}
	c.flushPhase()
	c.phase = name
}

// PushPhase enters a nested phase, remembering the active one so the
// matching PopPhase can restore it — for helpers that attribute part of
// their work to a sub-phase without knowing (or clobbering) the caller's
// phase. Push/pop pairs must balance on every control-flow path,
// including early returns; the phasebalance analyzer enforces this
// statically, because a leaked push misattributes every subsequent
// counter and an extra pop resurrects a stale outer phase, corrupting
// per-phase breakdowns without failing any test.
func (c *Ctx) PushPhase(name string) {
	c.phaseStack = append(c.phaseStack, c.phase)
	c.SetPhase(name)
}

// PopPhase leaves the phase entered by the matching PushPhase and
// resumes attributing counters to the phase active before it. Popping
// an empty stack is a no-op.
func (c *Ctx) PopPhase() {
	if len(c.phaseStack) == 0 {
		return
	}
	prev := c.phaseStack[len(c.phaseStack)-1]
	c.phaseStack = c.phaseStack[:len(c.phaseStack)-1]
	c.SetPhase(prev)
}

func (c *Ctx) flushPhase() {
	now := c.snapshot()
	delta := sub(now, c.lastSnap)
	c.lastSnap = now
	if _, seen := c.phases[c.phase]; !seen {
		if delta == (Profile{}) {
			// Don't materialize phases that never saw activity (e.g. the
			// implicit "" phase of kernels that set a phase immediately).
			return
		}
		c.phaseOrder = append(c.phaseOrder, c.phase)
	}
	c.phases[c.phase] = c.phases[c.phase].Add(delta)
}

func (c *Ctx) snapshot() Profile {
	p := Profile{
		Ops:     c.ops,
		SIMDOps: c.simd,
		MemRefs: c.refs,
		L1:      c.hier.L1.Stats(),
		Mem:     c.meter.Traffic(),
		Rows:    c.meter.RowStats(),
	}
	if c.hier.L2 != nil {
		p.LLC = c.hier.L2.Stats()
	}
	return p
}

// Finish closes the current phase and returns the total profile plus the
// per-phase map.
func (c *Ctx) Finish() (Profile, map[string]Profile) {
	c.flushPhase()
	total := Profile{}
	for _, p := range c.phases {
		total = total.Add(p)
	}
	return total, c.phases
}

// PhaseOrder returns phase labels in first-use order.
func (c *Ctx) PhaseOrder() []string {
	out := append([]string(nil), c.phaseOrder...)
	return out
}

// SortedPhases returns the phase labels sorted alphabetically (for stable
// test output when order does not matter).
func (c *Ctx) SortedPhases() []string {
	out := append([]string(nil), c.phaseOrder...)
	sort.Strings(out)
	return out
}

// Ops records n scalar ALU/branch operations.
func (c *Ctx) Ops(n int) {
	c.ops += uint64(n)
	if c.sink != nil {
		c.sink.Count(uint64(n), 0, 0)
	}
}

// Refs records n load/store instructions that are known to stay
// cache-resident (e.g. re-reads of a blocked operand panel inside a GEMM
// inner loop). They contribute to instruction count and L1 energy but do
// not traverse the cache model.
func (c *Ctx) Refs(n int) {
	c.refs += uint64(n)
	if c.sink != nil {
		c.sink.Count(0, 0, uint64(n))
	}
}

// SIMD records n vector ALU operations.
func (c *Ctx) SIMD(n int) {
	c.simd += uint64(n)
	if c.sink != nil {
		c.sink.Count(0, uint64(n), 0)
	}
}

// AddCounters bulk-adds pre-aggregated counter values. It is the replay
// entry point for coalesced Count events; kernels use Ops/SIMD/Refs.
func (c *Ctx) AddCounters(ops, simd, refs uint64) {
	c.ops += ops
	c.simd += simd
	c.refs += refs
}

// AddSpanRefs adds the memory-reference count of rows spans of rowBytes
// each at this hardware's scalar or vector reference width — exactly the
// MemRefs contribution the corresponding live span entry point computes.
// It is the compiled-replay hook for the hardware-dependent half of the
// counters: traces store raw span geometry, and the compiler aggregates
// it per (rowBytes, width-class) group so replay prices it against the
// replaying hardware's widths in O(groups) instead of O(events).
func (c *Ctx) AddSpanRefs(rowBytes, rows uint64, vector bool) {
	w := c.scalarRef
	if vector {
		w = c.vectorRef
	}
	c.refs += rows * ((rowBytes + w - 1) / w)
}

// Load records a scalar-width read of n bytes at offset off in b.
func (c *Ctx) Load(b *mem.Buffer, off, n int) {
	if n <= 0 {
		return
	}
	c.refs += (uint64(n) + c.scalarRef - 1) / c.scalarRef
	c.hier.Load(b.Addr(off), n)
	if c.sink != nil {
		c.sink.Span(OpLoad, b, off, n, 1, 0)
	}
}

// Store records a scalar-width write of n bytes at offset off in b.
func (c *Ctx) Store(b *mem.Buffer, off, n int) {
	if n <= 0 {
		return
	}
	c.refs += (uint64(n) + c.scalarRef - 1) / c.scalarRef
	c.hier.Store(b.Addr(off), n)
	if c.sink != nil {
		c.sink.Span(OpStore, b, off, n, 1, 0)
	}
}

// LoadV records a vector-width (bulk) read of n bytes, as a SIMD memcopy
// would issue.
func (c *Ctx) LoadV(b *mem.Buffer, off, n int) {
	if n <= 0 {
		return
	}
	c.refs += (uint64(n) + c.vectorRef - 1) / c.vectorRef
	c.hier.Load(b.Addr(off), n)
	if c.sink != nil {
		c.sink.Span(OpLoadV, b, off, n, 1, 0)
	}
}

// StoreV records a vector-width (bulk) write of n bytes.
func (c *Ctx) StoreV(b *mem.Buffer, off, n int) {
	if n <= 0 {
		return
	}
	c.refs += (uint64(n) + c.vectorRef - 1) / c.vectorRef
	c.hier.Store(b.Addr(off), n)
	if c.sink != nil {
		c.sink.Span(OpStoreV, b, off, n, 1, 0)
	}
}

// Span-coalescing entry points. Each batches a whole strided rectangle —
// `rows` spans of rowBytes each, stride bytes apart — into one call, and is
// defined as exactly equivalent to the corresponding per-row loop: same
// instruction counting, same cache-line events in the same order. They
// exist purely to cut per-call overhead in row-structured kernels (blit
// rectangles, texture tiles, packed GEMM panels, MC reference windows).

// LoadSpan records rows scalar-width reads of rowBytes each, stride bytes
// apart — equivalent to rows Load calls.
func (c *Ctx) LoadSpan(b *mem.Buffer, off, rowBytes, rows, stride int) {
	if rowBytes <= 0 || rows <= 0 {
		return
	}
	c.refs += uint64(rows) * ((uint64(rowBytes) + c.scalarRef - 1) / c.scalarRef)
	c.hier.LoadSpan(b.Addr(off), rowBytes, rows, uint64(stride))
	if c.sink != nil {
		c.sink.Span(OpLoad, b, off, rowBytes, rows, stride)
	}
}

// StoreSpan records rows scalar-width writes of rowBytes each, stride
// bytes apart — equivalent to rows Store calls.
func (c *Ctx) StoreSpan(b *mem.Buffer, off, rowBytes, rows, stride int) {
	if rowBytes <= 0 || rows <= 0 {
		return
	}
	c.refs += uint64(rows) * ((uint64(rowBytes) + c.scalarRef - 1) / c.scalarRef)
	c.hier.StoreSpan(b.Addr(off), rowBytes, rows, uint64(stride))
	if c.sink != nil {
		c.sink.Span(OpStore, b, off, rowBytes, rows, stride)
	}
}

// LoadSpanV records rows vector-width reads of rowBytes each, stride bytes
// apart — equivalent to rows LoadV calls.
func (c *Ctx) LoadSpanV(b *mem.Buffer, off, rowBytes, rows, stride int) {
	if rowBytes <= 0 || rows <= 0 {
		return
	}
	c.refs += uint64(rows) * ((uint64(rowBytes) + c.vectorRef - 1) / c.vectorRef)
	c.hier.LoadSpan(b.Addr(off), rowBytes, rows, uint64(stride))
	if c.sink != nil {
		c.sink.Span(OpLoadV, b, off, rowBytes, rows, stride)
	}
}

// StoreSpanV records rows vector-width writes of rowBytes each, stride
// bytes apart — equivalent to rows StoreV calls.
func (c *Ctx) StoreSpanV(b *mem.Buffer, off, rowBytes, rows, stride int) {
	if rowBytes <= 0 || rows <= 0 {
		return
	}
	c.refs += uint64(rows) * ((uint64(rowBytes) + c.vectorRef - 1) / c.vectorRef)
	c.hier.StoreSpan(b.Addr(off), rowBytes, rows, uint64(stride))
	if c.sink != nil {
		c.sink.Span(OpStoreV, b, off, rowBytes, rows, stride)
	}
}

// CopySpanV records a rectangle copy: per row, a vector-width read of
// rowBytes at src/srcOff and a vector-width write at dst/dstOff, the
// offsets advancing by their strides. The read/write interleaving per row
// is preserved (it determines eviction order), so the call is equivalent
// to the per-row LoadV+StoreV loop it replaces.
func (c *Ctx) CopySpanV(src *mem.Buffer, srcOff int, dst *mem.Buffer, dstOff int, rowBytes, rows, srcStride, dstStride int) {
	if rowBytes <= 0 || rows <= 0 {
		return
	}
	c.refs += uint64(rows) * 2 * ((uint64(rowBytes) + c.vectorRef - 1) / c.vectorRef)
	sa, da := src.Addr(srcOff), dst.Addr(dstOff)
	for r := 0; r < rows; r++ {
		c.hier.Load(sa, rowBytes)
		c.hier.Store(da, rowBytes)
		sa += uint64(srcStride)
		da += uint64(dstStride)
	}
	if c.sink != nil {
		c.sink.Span2(OpCopyV, src, srcOff, dst, dstOff, rowBytes, rows, srcStride, dstStride)
	}
}

// BlendSpanV records a read-modify-write rectangle: per row, vector-width
// reads of the src and dst rows followed by a write of the dst row — the
// access pattern of source-over alpha blending.
func (c *Ctx) BlendSpanV(src *mem.Buffer, srcOff int, dst *mem.Buffer, dstOff int, rowBytes, rows, srcStride, dstStride int) {
	if rowBytes <= 0 || rows <= 0 {
		return
	}
	c.refs += uint64(rows) * 3 * ((uint64(rowBytes) + c.vectorRef - 1) / c.vectorRef)
	sa, da := src.Addr(srcOff), dst.Addr(dstOff)
	for r := 0; r < rows; r++ {
		c.hier.Load(sa, rowBytes)
		c.hier.Load(da, rowBytes)
		c.hier.Store(da, rowBytes)
		sa += uint64(srcStride)
		da += uint64(dstStride)
	}
	if c.sink != nil {
		c.sink.Span2(OpBlendV, src, srcOff, dst, dstOff, rowBytes, rows, srcStride, dstStride)
	}
}
