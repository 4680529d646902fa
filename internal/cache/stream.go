package cache

import "fmt"

// LineStream is a compiled, hardware-config-independent program of
// line-granularity cache accesses. Which lines a recorded kernel touches,
// in which order, and with which read/write mix is a pure function of the
// trace geometry and the line size — it does not depend on cache capacity
// or associativity — so a trace can be compiled to a LineStream once and
// replayed against any number of cache hierarchies (Hierarchy.ReplayStream).
//
// The program is a sequence of two-word entries. Most are runs:
//
//	w0: count<<33 | uint32(deltaBytes)<<1 | write
//	w1: line-aligned start address
//
// A run issues count accesses, the address advancing by deltaBytes (a
// signed 32-bit byte delta, normally ±lineSize) after each one. delta == 0
// is the repeat form — count consecutive accesses to one line — which the
// replay walker applies in O(1) via Cache.AccessRepeat; delta != 0 is the
// stride form covering sequential or strided line walks.
//
// An entry whose count field is 0 is a loop pair:
//
//	w0: groupRuns<<1
//	w1: extra iterations
//
// It repeats the group of groupRuns (at most maxLoopRuns) runs just before
// it extra more times, so the group runs 1+extra times in all. A loop's
// group is plain runs only; loops do not nest.
type LineStream struct {
	prog []uint64
}

// Maximum run length: the count field has 31 bits. The builder splits
// longer runs, so this is an encoding detail, not a caller-visible limit.
const maxRunLen = 1<<31 - 1

// maxLoopRuns bounds a loop's group, and so how far back the builder
// looks for a repeat. The quick clip's motion search repeats groups of 1
// to 45 runs.
const maxLoopRuns = 64

// loopBody returns the group of plain runs the loop pair at prog[i]
// repeats.
func loopBody(prog []uint64, i int) []uint64 {
	return prog[i-2*int(prog[i]>>1) : i]
}

// NewLineStream returns the stream whose program is prog, for programs
// read back from outside the process. It checks what the walkers rely
// on: whole two-word entries, and loop pairs whose group of 1 to
// maxLoopRuns plain runs lies inside prog. Any run is valid as encoded.
// The stream keeps prog.
func NewLineStream(prog []uint64) (LineStream, error) {
	if len(prog)%2 != 0 {
		return LineStream{}, fmt.Errorf("line program of %d words is not whole entries", len(prog))
	}
	for i := 0; i < len(prog); i += 2 {
		w0 := prog[i]
		if w0>>33 != 0 {
			continue
		}
		g := w0 >> 1
		if w0&1 != 0 || g == 0 || g > maxLoopRuns || 2*g > uint64(i) {
			return LineStream{}, fmt.Errorf("line program entry %d: loop group of %d runs does not fit", i/2, g)
		}
		for j := i - 2*int(g); j < i; j += 2 {
			if prog[j]>>33 == 0 {
				return LineStream{}, fmt.Errorf("line program entry %d: loop group holds a loop pair", i/2)
			}
		}
	}
	return LineStream{prog: prog}, nil
}

// Program returns the stream's encoded words, for serialization. Callers
// must not modify them.
func (s *LineStream) Program() []uint64 { return s.prog }

// Len returns the total number of line accesses the stream issues, every
// loop iteration included.
func (s *LineStream) Len() uint64 {
	var n uint64
	for i := 0; i+1 < len(s.prog); i += 2 {
		if c := s.prog[i] >> 33; c != 0 {
			n += c
			continue
		}
		var group uint64
		body := loopBody(s.prog, i)
		for j := 0; j < len(body); j += 2 {
			group += body[j] >> 33
		}
		n += s.prog[i+1] * group
	}
	return n
}

// Runs returns the number of encoded entries, runs and loop pairs (for
// tests and size accounting).
func (s *LineStream) Runs() int { return len(s.prog) / 2 }

// Words returns the size of the encoded program in 8-byte words.
func (s *LineStream) Words() int { return len(s.prog) }

// StreamBuilder assembles a LineStream from a sequence of line accesses,
// greedily collapsing consecutive accesses with the same write flag:
// repeats of one line extend a delta-0 run, and constant-stride line walks
// extend a stride run. A group of up to maxLoopRuns runs that occurs
// three or more times back to back becomes its first occurrence plus a
// loop pair. The zero value is ready to use.
//
// Runs are written into fixed-size chunks, reused from one stream to the
// next, and Finish copies them into a program of exact length: no run is
// moved while a stream grows, and no stream keeps append slack.
type StreamBuilder struct {
	chunks [][]uint64 // chunks[:full] are full; chunks[full] (if any) is being filled
	full   int
	words  int // words written to the stream being built

	// Pending run state. n == 0 means no pending run; delta is only
	// meaningful once n >= 2.
	start uint64
	last  uint64
	delta int64
	n     uint64
	write bool

	// Loop detection, in entry indices of the stream being built. A
	// candidate group starts when a run equals one at most maxLoopRuns
	// entries back (found through seen); it becomes a loop once the
	// entries after its first occurrence have matched two more
	// occurrences, and the open loop then absorbs every further run that
	// continues the group.
	seen   [1 << seenBits]int // run hash -> base + index + 1 of its latest entry
	base   int                // seen's index of this stream's first entry
	floor  int                // first entry a group may start at: past the last loop pair
	period int                // candidate or open loop group length; 0: none
	match  int                // entries since the candidate began that equal the entry period back
	loop   int                // index of the open loop pair; 0: none (a loop pair never comes first)
	phase  int                // runs of the open loop's next iteration seen so far
}

// seenBits sizes StreamBuilder's last-position table. Only the runs of
// the last maxLoopRuns entries matter, so a small direct-mapped table
// finds nearly every group; a collision only loses a candidate.
const seenBits = 10

// chunkWords is the size of one StreamBuilder chunk: 64 KiB, an even
// number of words, so a two-word entry never straddles chunks.
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
	b.emit(b.n<<33|d<<1|w, b.start)
	b.n = 0
}

// emit appends the run (w0, w1), folding back-to-back repeats of a group
// of runs into a loop.
func (b *StreamBuilder) emit(w0, w1 uint64) {
	// Closing a loop re-emits its unfinished iteration, which can open a
	// shorter loop that this run may continue.
	for b.loop != 0 {
		if b.equal(b.loop-b.period+b.phase, w0, w1) {
			if b.phase++; b.phase == b.period {
				b.phase = 0
				b.chunk(2*b.loop + 1)[0]++
			}
			return
		}
		b.closeLoop()
	}
	j := b.words / 2
	h := (w0*0x9e3779b97f4a7c15 ^ w1) * 0xff51afd7ed558ccd >> (64 - seenBits)
	if b.period != 0 && b.equal(j-b.period, w0, w1) {
		b.match++
	} else {
		b.period = 0
		p := b.seen[h] - 1 - b.base
		if d := j - p; p >= b.floor && d > 0 && d <= maxLoopRuns && b.equal(p, w0, w1) {
			b.period, b.match = d, 1
		}
	}
	b.seen[h] = b.base + j + 1
	b.put(w0, w1)
	if b.period != 0 && b.match == 2*b.period {
		// Three occurrences: keep the first as the loop's group and
		// replace the other two with the loop pair.
		b.truncate(b.words - 4*b.period)
		b.loop, b.phase = b.words/2, 0
		b.put(uint64(b.period)<<1, 2)
	}
}

// closeLoop ends the open loop and emits the runs of its unfinished
// iteration as plain runs after it.
func (b *StreamBuilder) closeLoop() {
	first, n := b.loop-b.period, b.phase
	b.loop, b.period, b.phase = 0, 0, 0
	b.floor = b.words / 2
	for i := first; i < first+n; i++ {
		w := b.chunk(2 * i)
		b.emit(w[0], w[1])
	}
}

// chunk returns the written words from word index i to the end of i's
// chunk.
func (b *StreamBuilder) chunk(i int) []uint64 {
	return b.chunks[i/chunkWords][i%chunkWords:]
}

// equal reports whether entry i is the run (w0, w1).
func (b *StreamBuilder) equal(i int, w0, w1 uint64) bool {
	w := b.chunk(2 * i)
	return w[0] == w0 && w[1] == w1
}

func (b *StreamBuilder) put(w0, w1 uint64) {
	if b.full == len(b.chunks) {
		b.chunks = append(b.chunks, make([]uint64, 0, chunkWords))
	}
	c := append(b.chunks[b.full], w0, w1)
	b.chunks[b.full] = c
	if len(c) == chunkWords {
		b.full++
	}
	b.words += 2
}

// truncate drops the words past the first n of the stream being built.
func (b *StreamBuilder) truncate(n int) {
	for i := n / chunkWords; i <= b.full && i < len(b.chunks); i++ {
		b.chunks[i] = b.chunks[i][:max(0, n-i*chunkWords)]
	}
	b.full, b.words = n/chunkWords, n
}

// Finish seals and returns the stream. The builder is reset and may be
// reused for the next stream.
func (b *StreamBuilder) Finish() LineStream {
	b.flush()
	for b.loop != 0 {
		b.closeLoop()
	}
	prog := make([]uint64, 0, b.words)
	for i, c := range b.chunks {
		prog = append(prog, c...)
		b.chunks[i] = c[:0]
	}
	b.base += b.words / 2
	b.full, b.words, b.floor, b.period = 0, 0, 0, 0
	return LineStream{prog: prog}
}

// ReplayStream drives a compiled line stream through the hierarchy,
// producing exactly the per-line events of issuing each encoded access via
// the Load/Store path — same stats, same LRU and row-buffer state — with
// the span-splitting and per-event dispatch already compiled away. Repeat
// runs (delta 0) apply in O(1); stride runs walk a tight per-line loop
// with the stats bookkeeping hoisted out; loops stop walking once an
// iteration hits throughout (see loop). It is the only stream walker:
// HierarchySet.ReplayStreamBatch runs it once per L1 group.
func (h *Hierarchy) ReplayStream(s *LineStream) {
	h.replay(s.prog)
}

func (h *Hierarchy) replay(prog []uint64) {
	for i := 0; i+1 < len(prog); i += 2 {
		w0, addr := prog[i], prog[i+1]
		n := w0 >> 33
		delta := int64(int32(uint32(w0 >> 1)))
		write := w0&1 != 0
		switch {
		case n == 0:
			h.loop(loopBody(prog, i), addr)
		case delta == 0:
			h.accessRepeat(addr, write, n)
		default:
			h.accessRun(addr, write, n, delta)
		}
	}
}

// loop walks extra more iterations of body, a group of runs just walked
// once, until one misses nowhere in the L1; the iterations after it are
// added to the L1's counters in one step. That is exact: an all-hit
// iteration found every line of the group resident, so no set holds more
// than ways of them, and walking the group again from the state its own
// previous iteration left moves each touched line back to where that
// iteration put it, sets no new dirty bit, ends on the same MRU set and
// sends nothing below the L1 — every later iteration would do the same.
func (h *Hierarchy) loop(body []uint64, extra uint64) {
	l1 := h.L1
	for ; extra > 0; extra-- {
		misses := l1.stats.Misses
		h.replay(body)
		if l1.stats.Misses == misses {
			l1.countHits(body, extra-1)
			return
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
	return fmt.Sprintf("linestream{%d entries, %d accesses}", s.Runs(), s.Len())
}
