// Package trace implements capture-once / replay-many kernel profiling.
//
// A kernel's instrumentation stream — phase markers, Ops/SIMD/Refs counter
// deltas, and the scalar/vector load/store/span/copy/blend events it issues
// against simulated buffers — is a pure function of the kernel's inputs; only
// the memory hierarchy it is measured against differs between hardware
// configurations. Recording the stream once and replaying it into a fresh
// cache hierarchy + row meter therefore reproduces profile.Run's
// (Profile, per-phase) result bit-identically, at a fraction of the cost of
// re-executing the kernel's functional work (DCT/entropy coding, LZO matching,
// GEMM arithmetic, ...).
//
// The trace is a compact append-only []uint64 event stream. Event layouts
// (the opcode lives in the low 8 bits of the first word):
//
//	phase:  1 word   op | phaseIndex<<8
//	count:  4 words  op; ops; simd; refs        (coalesced counter deltas)
//	span:   3 words  op | bufID<<8 | rowBytes<<32; off; rows | stride<<32
//	span2:  5 words  op | srcID<<8 | dstID<<32; srcOff; dstOff;
//	                 rowBytes | rows<<32; srcStride | dstStride<<32
//
// Buffer identity is interned: the recorder assigns dense ids on first use
// and stores each buffer's base address, so the replayer can re-issue the
// events against synthetic buffers without materializing any data. Traces
// record raw byte geometry, never derived reference counts: MemRefs depends
// on the replay hardware's scalar/vector reference widths and is recomputed
// by profile.Ctx during replay.
package trace

import (
	"fmt"
	"sync"

	"gopim/internal/mem"
	"gopim/internal/obs"
	"gopim/internal/profile"
)

// Opcodes. Access events use 2 + profile.AccessOp.
const (
	opPhase = 0
	opCount = 1
	opSpan0 = 2 // opSpan0 + AccessOp for OpLoad..OpBlendV
)

// Field-width limits of the packed encoding. All are far above anything the
// simulator produces (the largest standard-scale buffer is tens of MB); the
// recorder panics rather than silently truncating if one is ever exceeded.
const (
	maxID = 1 << 24 // buffer id width (span and span2 events alike)
	max32 = 1 << 32
)

// Trace is one kernel's recorded instrumentation stream.
type Trace struct {
	// Kernel is the kernel's report name (not the cache key).
	Kernel string

	// Obs, when non-nil, receives compile and batch-replay phase spans.
	// trace.Cache sets it while the trace is still private to the recording
	// single-flight; set it before sharing a hand-built Trace.
	Obs *obs.Registry

	// The event stream, words long. A recorded trace holds it in events.
	// One loaded from the store holds its encoded section in evEnc until
	// something asks for events (eventWords), which decodes it once.
	events []uint64
	evEnc  []byte
	evOnce sync.Once
	words  int
	phases []string // interned phase names, indexed by phase events
	bases  []uint64 // buffer id -> base address in the recording Space

	// Replay-many state, interned on first use and shared by all replays:
	// the compiled line-stream form per line size, and the interpreter's
	// synthetic buffer handles (stateless, so sharing is safe). mu also
	// orders the swap of evEnc for events against MemBytes.
	mu         sync.Mutex
	compiledBy map[uint64]*compiledEntry
	bufsOnce   sync.Once
	replayBufs []*mem.Buffer
}

// Words returns the size of the event stream in 8-byte words, decoded or
// not.
func (t *Trace) Words() int { return t.words }

// eventWords returns the event stream, decoding a store-loaded trace's
// event section on first use. decodeTrace has checked the section's
// framing, so decoding cannot fail.
func (t *Trace) eventWords() []uint64 {
	t.evOnce.Do(func() {
		if t.evEnc == nil {
			return
		}
		ev := decodeEvents(t.evEnc, t.words)
		t.mu.Lock()
		t.events, t.evEnc = ev, nil
		t.mu.Unlock()
	})
	return t.events
}

// MemBytes returns the in-memory footprint of the recorded stream — events
// (decoded, or still encoded for a store-loaded trace), buffer bases, and
// phase names. Compiled per-line-size forms are excluded: their lifetime
// follows the Trace's. This is the per-entry size the Cache's Limit bounds.
func (t *Trace) MemBytes() int64 {
	t.mu.Lock()
	n := int64(len(t.events)+len(t.bases))*8 + int64(len(t.evEnc))
	t.mu.Unlock()
	for _, p := range t.phases {
		n += int64(len(p))
	}
	return n
}

// Recorder implements profile.TraceSink, building a Trace. Consecutive
// Count events are coalesced into the pending counters and flushed as a
// single event at the next phase transition (counter order within a phase is
// immaterial: counters commute with memory events, which only touch the
// hierarchy). Use via profile.Record, then call Finish.
type Recorder struct {
	t        *Trace
	bufIDs   map[*mem.Buffer]uint64
	phaseIDs map[string]uint64

	pOps, pSIMD, pRefs uint64
}

// NewRecorder returns a recorder for one execution of the named kernel.
func NewRecorder(kernel string) *Recorder {
	return &Recorder{
		t:        &Trace{Kernel: kernel},
		bufIDs:   map[*mem.Buffer]uint64{},
		phaseIDs: map[string]uint64{},
	}
}

func (r *Recorder) flushCounts() {
	if r.pOps == 0 && r.pSIMD == 0 && r.pRefs == 0 {
		return
	}
	r.t.events = append(r.t.events, opCount, r.pOps, r.pSIMD, r.pRefs)
	r.pOps, r.pSIMD, r.pRefs = 0, 0, 0
}

func (r *Recorder) bufID(b *mem.Buffer) uint64 {
	id, ok := r.bufIDs[b]
	if !ok {
		id = uint64(len(r.t.bases))
		if id >= maxID {
			panic(fmt.Sprintf("trace: kernel %q uses more than %d buffers", r.t.Kernel, maxID))
		}
		r.bufIDs[b] = id
		r.t.bases = append(r.t.bases, b.Base)
	}
	return id
}

// Phase implements profile.TraceSink.
func (r *Recorder) Phase(name string) {
	r.flushCounts()
	id, ok := r.phaseIDs[name]
	if !ok {
		id = uint64(len(r.t.phases))
		r.phaseIDs[name] = id
		r.t.phases = append(r.t.phases, name)
	}
	r.t.events = append(r.t.events, opPhase|id<<8)
}

// Count implements profile.TraceSink.
func (r *Recorder) Count(ops, simd, refs uint64) {
	r.pOps += ops
	r.pSIMD += simd
	r.pRefs += refs
}

// Span implements profile.TraceSink.
func (r *Recorder) Span(op profile.AccessOp, b *mem.Buffer, off, rowBytes, rows, stride int) {
	if off < 0 || rowBytes >= max32 || rows >= max32 || stride < 0 || stride >= max32 {
		panic(fmt.Sprintf("trace: span geometry out of range: off=%d rowBytes=%d rows=%d stride=%d", off, rowBytes, rows, stride))
	}
	r.t.events = append(r.t.events,
		uint64(opSpan0+int(op))|r.bufID(b)<<8|uint64(rowBytes)<<32,
		uint64(off),
		uint64(rows)|uint64(stride)<<32)
}

// Span2 implements profile.TraceSink.
func (r *Recorder) Span2(op profile.AccessOp, src *mem.Buffer, srcOff int, dst *mem.Buffer, dstOff int, rowBytes, rows, srcStride, dstStride int) {
	if srcOff < 0 || dstOff < 0 || rowBytes >= max32 || rows >= max32 ||
		srcStride < 0 || srcStride >= max32 || dstStride < 0 || dstStride >= max32 {
		panic(fmt.Sprintf("trace: span2 geometry out of range: rowBytes=%d rows=%d strides=%d/%d", rowBytes, rows, srcStride, dstStride))
	}
	r.t.events = append(r.t.events,
		uint64(opSpan0+int(op))|r.bufID(src)<<8|r.bufID(dst)<<32,
		uint64(srcOff),
		uint64(dstOff),
		uint64(rowBytes)|uint64(rows)<<32,
		uint64(srcStride)|uint64(dstStride)<<32)
}

// Finish flushes pending counters and returns the completed trace. The
// recorder must not be used afterwards.
func (r *Recorder) Finish() *Trace {
	r.flushCounts()
	r.t.words = len(r.t.events)
	return r.t
}

// Replay feeds the recorded stream into a fresh context for hw — a new cache
// hierarchy and row meter — and returns exactly what profile.Run(hw, kernel)
// returns, including the per-phase map. It is a batch of one (see
// ReplayBatch) over the compiled line-stream form (see compile.go), which
// is lowered once per line size and reused across every subsequent replay
// and hardware config. Replay is safe to call concurrently on the same
// Trace.
func (t *Trace) Replay(hw profile.Hardware) (profile.Profile, map[string]profile.Profile) {
	r := t.compile(hwLineSize(hw)).replay([]profile.Hardware{hw})[0]
	return r.Profile, r.Phases
}

// buffers returns the interpreter's synthetic buffer handles, built once
// per Trace: they are immutable (name + base address), so every replay
// shares them instead of re-allocating and re-formatting names.
func (t *Trace) buffers() []*mem.Buffer {
	t.bufsOnce.Do(func() {
		t.replayBufs = make([]*mem.Buffer, len(t.bases))
		for i, base := range t.bases {
			t.replayBufs[i] = mem.BufferAt(fmt.Sprintf("replay%d", i), base)
		}
	})
	return t.replayBufs
}

// ReplayInterp is the reference replay: it interprets the packed span
// events one at a time through the live span entry points. It computes
// exactly what Replay computes — the compiled form is defined (and
// gate-tested) against it — and no program path calls it: it is the oracle
// that tests and the benchmark's layer walk compare Replay with.
func (t *Trace) ReplayInterp(hw profile.Hardware) (profile.Profile, map[string]profile.Profile) {
	ctx := profile.NewCtx(hw)
	bufs := t.buffers()
	ev := t.eventWords()
	for i := 0; i < len(ev); {
		w := ev[i]
		switch op := w & 0xff; op {
		case opPhase:
			ctx.SetPhase(t.phases[w>>8])
			i++
		case opCount:
			ctx.AddCounters(ev[i+1], ev[i+2], ev[i+3])
			i += 4
		case opSpan0 + uint64(profile.OpCopyV), opSpan0 + uint64(profile.OpBlendV):
			src := bufs[w>>8&(maxID-1)]
			dst := bufs[w>>32&(maxID-1)]
			srcOff, dstOff := int(ev[i+1]), int(ev[i+2])
			rowBytes, rows := int(ev[i+3]&(max32-1)), int(ev[i+3]>>32)
			srcStride, dstStride := int(ev[i+4]&(max32-1)), int(ev[i+4]>>32)
			if op == opSpan0+uint64(profile.OpCopyV) {
				ctx.CopySpanV(src, srcOff, dst, dstOff, rowBytes, rows, srcStride, dstStride)
			} else {
				ctx.BlendSpanV(src, srcOff, dst, dstOff, rowBytes, rows, srcStride, dstStride)
			}
			i += 5
		default:
			b := bufs[w>>8&(maxID-1)]
			off := int(ev[i+1])
			rowBytes := int(w >> 32)
			rows, stride := int(ev[i+2]&(max32-1)), int(ev[i+2]>>32)
			switch profile.AccessOp(op - opSpan0) {
			case profile.OpLoad:
				ctx.LoadSpan(b, off, rowBytes, rows, stride)
			case profile.OpStore:
				ctx.StoreSpan(b, off, rowBytes, rows, stride)
			case profile.OpLoadV:
				ctx.LoadSpanV(b, off, rowBytes, rows, stride)
			case profile.OpStoreV:
				ctx.StoreSpanV(b, off, rowBytes, rows, stride)
			default:
				panic(fmt.Sprintf("trace: corrupt event opcode %d at word %d", op, i))
			}
			i += 3
		}
	}
	return ctx.Finish()
}
