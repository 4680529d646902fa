package cache

import "fmt"

// LineStream is a compiled, hardware-config-independent program of
// line-granularity cache accesses. Which lines a recorded kernel touches,
// in which order, and with which read/write mix is a pure function of the
// trace geometry and the line size — it does not depend on cache capacity
// or associativity — so a trace can be compiled to a LineStream once and
// replayed against any number of cache hierarchies (Hierarchy.ReplayStream).
//
// The program is run-length encoded as two-word runs:
//
//	w0: count<<33 | uint32(deltaBytes)<<1 | write
//	w1: line-aligned start address
//
// A run issues count accesses, the address advancing by deltaBytes (a
// signed 32-bit byte delta, normally ±lineSize) after each one. delta == 0
// is the repeat form — count consecutive accesses to one line — which the
// replay walker applies in O(1) via Cache.AccessRepeat; delta != 0 is the
// stride form covering sequential or strided line walks.
type LineStream struct {
	prog []uint64
}

// Maximum run length: the count field has 31 bits. The builder splits
// longer runs, so this is an encoding detail, not a caller-visible limit.
const maxRunLen = 1<<31 - 1

// Len returns the total number of line accesses the stream issues.
func (s *LineStream) Len() uint64 {
	var n uint64
	for i := 0; i+1 < len(s.prog); i += 2 {
		n += s.prog[i] >> 33
	}
	return n
}

// Runs returns the number of encoded runs (for tests and size accounting).
func (s *LineStream) Runs() int { return len(s.prog) / 2 }

// Words returns the size of the encoded program in 8-byte words.
func (s *LineStream) Words() int { return len(s.prog) }

// StreamBuilder assembles a LineStream from a sequence of line accesses,
// greedily collapsing consecutive accesses with the same write flag:
// repeats of one line extend a delta-0 run, and constant-stride line walks
// extend a stride run. The zero value is ready to use.
//
// Runs are written into fixed-size chunks, reused from one stream to the
// next, and Finish copies them into a program of exact length: no run is
// moved while a stream grows, and no stream keeps append slack.
type StreamBuilder struct {
	chunks [][]uint64 // chunks[:full] are full; chunks[full] (if any) is being filled
	full   int

	// Pending run state. n == 0 means no pending run; delta is only
	// meaningful once n >= 2.
	start uint64
	last  uint64
	delta int64
	n     uint64
	write bool
}

// chunkWords is the size of one StreamBuilder chunk: 64 KiB, an even
// number of words, so a two-word run never straddles chunks.
const chunkWords = 8 << 10

// Access appends one access to the line containing addr. addr must be
// line-aligned (the compiler expands spans to line addresses).
func (b *StreamBuilder) Access(addr uint64, write bool) {
	if b.n == 0 {
		b.begin(addr, write)
		return
	}
	if write == b.write && b.n < maxRunLen {
		if b.n == 1 {
			d := int64(addr) - int64(b.start)
			if d == int64(int32(d)) {
				b.delta, b.last, b.n = d, addr, 2
				return
			}
		} else if addr == b.last+uint64(b.delta) {
			b.last, b.n = addr, b.n+1
			return
		}
	}
	b.flush()
	b.begin(addr, write)
}

func (b *StreamBuilder) begin(addr uint64, write bool) {
	b.start, b.last, b.n, b.write = addr, addr, 1, write
}

func (b *StreamBuilder) flush() {
	if b.n == 0 {
		return
	}
	var d uint64
	if b.n >= 2 {
		d = uint64(uint32(int32(b.delta)))
	}
	var w uint64
	if b.write {
		w = 1
	}
	if b.full == len(b.chunks) {
		b.chunks = append(b.chunks, make([]uint64, 0, chunkWords))
	}
	c := append(b.chunks[b.full], b.n<<33|d<<1|w, b.start)
	b.chunks[b.full] = c
	if len(c) == chunkWords {
		b.full++
	}
	b.n = 0
}

// Finish seals and returns the stream. The builder is reset and may be
// reused for the next stream.
func (b *StreamBuilder) Finish() LineStream {
	b.flush()
	words := b.full * chunkWords
	if b.full < len(b.chunks) {
		words += len(b.chunks[b.full])
	}
	prog := make([]uint64, 0, words)
	for i, c := range b.chunks {
		prog = append(prog, c...)
		b.chunks[i] = c[:0]
	}
	b.full = 0
	return LineStream{prog: prog}
}

// ReplayStream drives a compiled line stream through the hierarchy,
// producing exactly the per-line events of issuing each encoded access via
// the Load/Store path — same stats, same LRU and row-buffer state — with
// the span-splitting and per-event dispatch already compiled away. Repeat
// runs (delta 0) apply in O(1); stride runs walk a tight per-line loop
// with the stats bookkeeping hoisted out.
func (h *Hierarchy) ReplayStream(s *LineStream) {
	prog := s.prog
	for i := 0; i+1 < len(prog); i += 2 {
		w0, addr := prog[i], prog[i+1]
		n := w0 >> 33
		delta := int64(int32(uint32(w0 >> 1)))
		write := w0&1 != 0
		if delta == 0 {
			h.accessRepeat(addr, write, n)
		} else {
			h.accessRun(addr, write, n, delta)
		}
	}
}

// accessRepeat issues n consecutive accesses to one line. The first access
// runs the full path; the remaining n-1 are guaranteed L1 hits (the line
// was just touched and nothing intervened), applied in bulk.
func (h *Hierarchy) accessRepeat(addr uint64, write bool, n uint64) {
	hit, wb, wbAddr := h.L1.AccessRepeat(addr, write, n)
	if !hit {
		h.fill(addr, wb, wbAddr)
	}
}

// accessRun issues n accesses starting at addr, advancing delta bytes per
// access: exactly what n successive Access calls would do, with the
// read/write tally added in bulk and the MRU check skipped (within a run
// consecutive accesses touch distinct lines).
func (h *Hierarchy) accessRun(addr uint64, write bool, n uint64, delta int64) {
	l1 := h.L1
	l1.count(write, n)
	for ; n > 0; n-- {
		if hit, wb, wbAddr := l1.lookup(addr>>l1.lineBits, write); !hit {
			h.fill(addr, wb, wbAddr)
		}
		addr += uint64(delta)
	}
}

// String summarizes the stream for diagnostics.
func (s *LineStream) String() string {
	return fmt.Sprintf("linestream{%d runs, %d accesses}", s.Runs(), s.Len())
}
