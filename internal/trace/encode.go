// Binary trace-store format: the serialization half of the persistent
// content-addressed store (store.go).
//
// An entry is a fixed 24-byte header followed by a variable payload:
//
//	 0: 4  magic "GPTR"
//	 4: 8  format version (uint32 LE)
//	 8:16  payload length in bytes (uint64 LE)
//	16:24  CRC-32C (Castagnoli) of the payload, zero-extended (uint64 LE)
//
//	payload:
//	  content key      uvarint length + bytes
//	  kernel name      uvarint length + bytes
//	  phase names      uvarint count, then uvarint length + bytes each
//	  buffer bases     uvarint count, then uvarint each
//	  event stream     uvarint word count, uvarint byte length, then the
//	                   words as uvarints
//	  64 B form        uvarint segment count, uvarint program words in all,
//	                   then per segment:
//	                     phase       uvarint: 0 unnamed, i+1 phase name i
//	                     counters    uvarint ops, simd, refs
//	                     ref groups  scalar, then vector: uvarint count,
//	                                 then uvarint rowBytes and rows each
//	                     program     uvarint word count, then three
//	                                 uvarints per two-word entry
//
// A program entry is a run — count<<1|write, then its stride and the move
// of its start address from the previous run's, both in lines and
// zigzag-coded — or a loop pair: 0, then its group length and its extra
// iterations (cache.LineStream's layout, line size mem.LineSize).
//
// The CRC-32C detects every single-bit flip and every burst of up to 32
// bits in the payload, and runs on the CPU's CRC instruction. Header
// corruption is caught structurally — magic, version, and payload-length
// mismatches each fail decoding on their own — so decode rejects every
// truncation and every bit flip (tested exhaustively in encode_test.go).
// A forged entry with a matching checksum still meets a decoder that
// checks every count against the bytes that remain, every phase index,
// the event section's varint framing and the program's structure, so it
// decodes as corrupt or as a trace that replays without panicking.
//
// Only the mem.LineSize form travels with the entry: every paper config
// uses it, and lowering it was a fifth of a store-backed regeneration.
// Other line sizes lower from the event stream, which a loaded trace keeps
// encoded until something asks for events. A persisted program is only as
// current as the lowering that produced it: TestLoweringPinned pins a hash
// of the 64 B forms of fixed kernels, so a change to lowering fails until
// storeFormatVersion is bumped with it.
package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"

	"gopim/internal/cache"
	"gopim/internal/mem"
)

// storeFormatVersion is the on-disk trace format version. Bump it for any
// layout change, and for any change to how traces lower to line programs:
// entries live under a version-qualified directory, so a bump invalidates
// every old entry cleanly (the old directory is reported as stale by
// Store.Verify and removable with -prune). The storever lint analyzer
// requires both encodeTrace and decodeTrace to reference this constant, so
// a format change cannot ship half-bumped.
const storeFormatVersion = 2

// loweringPin is the sha256 TestLoweringPinned computes over the 64 B
// forms of fixed traces. Entries carry those forms, so it changes only
// together with storeFormatVersion.
const loweringPin = "70e52a0a97c6728c64394406c98bad551870fc85c78e69bd301188b23cb39475"

const (
	storeMagic     = "GPTR"
	storeHeaderLen = 24
)

// lineBits is log2 of mem.LineSize, the line size of the persisted form.
const lineBits = 6

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// storeChecksum is the header's integrity field for payload.
func storeChecksum(payload []byte) uint64 {
	return uint64(crc32.Checksum(payload, castagnoli))
}

// encodeTrace serializes the trace, its content key and its mem.LineSize
// form (compiling it if no replay has) into a store entry, written
// straight into one buffer of the entry's size.
func encodeTrace(key string, t *Trace) []byte {
	ev := t.eventWords()
	c := t.compile(mem.LineSize)
	evLen := 0
	for _, w := range ev {
		evLen += uvarintLen(w)
	}
	progWords := 0
	n := storeHeaderLen + 8*binary.MaxVarintLen64 + len(key) + len(t.Kernel) + evLen
	for _, p := range t.phases {
		n += binary.MaxVarintLen64 + len(p)
	}
	n += len(t.bases) * binary.MaxVarintLen64
	for i := range c.segs {
		seg := &c.segs[i]
		prog := seg.stream.Program()
		progWords += len(prog)
		n += (6+2*len(seg.scalar)+2*len(seg.vector))*binary.MaxVarintLen64 + programLen(prog)
	}
	buf := make([]byte, storeHeaderLen, n)

	buf = appendString(buf, key)
	buf = appendString(buf, t.Kernel)
	buf = binary.AppendUvarint(buf, uint64(len(t.phases)))
	phaseIDs := make(map[string]uint64, len(t.phases))
	for i, p := range t.phases {
		buf = appendString(buf, p)
		phaseIDs[p] = uint64(i + 1)
	}
	buf = binary.AppendUvarint(buf, uint64(len(t.bases)))
	for _, b := range t.bases {
		buf = binary.AppendUvarint(buf, b)
	}
	buf = binary.AppendUvarint(buf, uint64(len(ev)))
	buf = binary.AppendUvarint(buf, uint64(evLen))
	for _, w := range ev {
		buf = appendUvarint(buf, w)
	}
	buf = binary.AppendUvarint(buf, uint64(len(c.segs)))
	buf = binary.AppendUvarint(buf, uint64(progWords))
	for i := range c.segs {
		seg := &c.segs[i]
		buf = binary.AppendUvarint(buf, phaseIDs[seg.phase])
		buf = binary.AppendUvarint(buf, seg.ops)
		buf = binary.AppendUvarint(buf, seg.simd)
		buf = binary.AppendUvarint(buf, seg.refs)
		buf = appendGroups(buf, seg.scalar)
		buf = appendGroups(buf, seg.vector)
		buf = appendProgram(buf, seg.stream.Program())
	}

	payload := buf[storeHeaderLen:]
	copy(buf[0:4], storeMagic)
	binary.LittleEndian.PutUint32(buf[4:8], storeFormatVersion)
	binary.LittleEndian.PutUint64(buf[8:16], uint64(len(payload)))
	binary.LittleEndian.PutUint64(buf[16:24], storeChecksum(payload))
	return buf
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendGroups(buf []byte, groups []refGroup) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(groups)))
	for _, g := range groups {
		buf = binary.AppendUvarint(buf, g.rowBytes)
		buf = binary.AppendUvarint(buf, g.rows)
	}
	return buf
}

// uvarintLen is the encoded length of v as a uvarint.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// entryFields returns the three uvarints that encode the program entry
// (w0, w1), whose preceding run started at prev (see the package comment),
// and the start address the next entry is coded against. Runs of a
// mem.LineSize program start and stride on line boundaries.
func entryFields(w0, w1, prev uint64) (h, f1, f2, next uint64) {
	if w0>>33 == 0 {
		return 0, w0 >> 1, w1, prev
	}
	stride := int64(int32(uint32(w0 >> 1)))
	return w0>>33<<1 | w0&1, zigzag(stride >> lineBits), zigzag(int64(w1-prev) >> lineBits), w1
}

func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// programLen is the encoded length of appendProgram's output for prog.
func programLen(prog []uint64) int {
	n := uvarintLen(uint64(len(prog)))
	var prev uint64
	for i := 0; i+1 < len(prog); i += 2 {
		h, f1, f2, next := entryFields(prog[i], prog[i+1], prev)
		n += uvarintLen(h) + uvarintLen(f1) + uvarintLen(f2)
		prev = next
	}
	return n
}

// appendProgram appends prog's word count and its whole entries.
func appendProgram(buf []byte, prog []uint64) []byte {
	buf = appendUvarint(buf, uint64(len(prog)))
	var prev uint64
	for i := 0; i+1 < len(prog); i += 2 {
		h, f1, f2, next := entryFields(prog[i], prog[i+1], prev)
		buf = appendUvarint(appendUvarint(appendUvarint(buf, h), f1), f2)
		prev = next
	}
	return buf
}

// appendUvarint is binary.AppendUvarint with the one-byte case, most of
// an entry's, inline.
func appendUvarint(buf []byte, v uint64) []byte {
	if v < 0x80 {
		return append(buf, byte(v))
	}
	return binary.AppendUvarint(buf, v)
}

// errStringLength is the decoding error TestDecodeRejectsOversizedStringLength
// requires.
var errStringLength = errors.New("string length exceeds payload size")

// decodeTrace parses a store entry, verifying the magic, format version,
// payload length, checksum, and every section's structure before
// trusting any field. The mem.LineSize form is installed as the trace's
// compiled entry; the event section stays encoded (see eventWords). Any
// corruption — truncation, a flipped bit anywhere, a stale format, a
// malformed section — is an error; callers treat errors as a cache miss,
// never a crash.
func decodeTrace(data []byte) (key string, t *Trace, err error) {
	if len(data) < storeHeaderLen {
		return "", nil, fmt.Errorf("trace store entry: %d bytes, shorter than the %d-byte header", len(data), storeHeaderLen)
	}
	if string(data[0:4]) != storeMagic {
		return "", nil, fmt.Errorf("trace store entry: bad magic %q", data[0:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != storeFormatVersion {
		return "", nil, fmt.Errorf("trace store entry: format version %d, want %d", v, storeFormatVersion)
	}
	payload := data[storeHeaderLen:]
	if n := binary.LittleEndian.Uint64(data[8:16]); n != uint64(len(payload)) {
		return "", nil, fmt.Errorf("trace store entry: payload length %d, header says %d", len(payload), n)
	}
	if sum := binary.LittleEndian.Uint64(data[16:24]); sum != storeChecksum(payload) {
		return "", nil, fmt.Errorf("trace store entry: checksum mismatch")
	}

	d := decoder{buf: payload}
	key = d.string()
	t = &Trace{Kernel: d.string()}
	// Zero-length sections stay nil, mirroring what a Recorder builds.
	if n := d.count(len(d.buf)); n > 0 {
		t.phases = make([]string, n)
		for i := range t.phases {
			t.phases[i] = d.string()
		}
	}
	if n := d.count(len(d.buf)); n > 0 {
		t.bases = make([]uint64, n)
		for i := range t.bases {
			t.bases[i] = d.uvarint()
		}
	}
	t.words = d.count(len(d.buf))
	if enc := d.bytes(); d.err == nil {
		if !validUvarints(enc, t.words) {
			d.fail(errors.New("malformed event section"))
		} else if t.words > 0 {
			// A copy, so the events do not keep the file buffer alive.
			t.evEnc = append([]byte(nil), enc...)
		}
	}
	c := d.compiled(t.phases)
	if d.err != nil {
		return "", nil, fmt.Errorf("trace store entry: %w", d.err)
	}
	if len(d.buf) != 0 {
		return "", nil, fmt.Errorf("trace store entry: %d trailing bytes after the 64 B form", len(d.buf))
	}
	// A completed entry: compile returns c without lowering.
	e := &compiledEntry{}
	e.once.Do(func() { e.c = c })
	t.compiledBy = map[uint64]*compiledEntry{mem.LineSize: e}
	return key, t, nil
}

// decoder is a cursor over the payload with sticky error handling: after
// the first malformed field every further read returns zero values, and
// decodeTrace reports the recorded error once at the end.
type decoder struct {
	buf []byte
	err error
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.buf = nil
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail(errors.New("truncated or overlong varint"))
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// count reads a uvarint element count, rejecting values that could not
// possibly fit in the remaining payload (so a corrupt count cannot drive a
// huge allocation before a later check fails).
func (d *decoder) count(max int) int {
	v := d.uvarint()
	if d.err == nil && v > uint64(max) {
		d.fail(errors.New("element count exceeds payload size"))
		return 0
	}
	return int(v)
}

// bytes reads a uvarint length and returns that many bytes.
func (d *decoder) bytes() []byte {
	// Bound the length against the buffer that remains AFTER the varint is
	// consumed: measuring before it would accept a length that overruns the
	// payload by up to the varint's own width and panic on the slice below.
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.buf)) {
		d.fail(errStringLength)
	}
	if d.err != nil {
		return nil
	}
	b := d.buf[:n:n]
	d.buf = d.buf[n:]
	return b
}

func (d *decoder) string() string { return string(d.bytes()) }

// compiled reads the mem.LineSize form of a trace with the given phase
// names. Every segment's program is a slice of one allocation.
func (d *decoder) compiled(phases []string) *compiled {
	nsegs := d.count(len(d.buf) / 7) // a segment takes at least 7 bytes
	progs := make([]uint64, d.count(len(d.buf)))
	c := &compiled{segs: make([]segment, nsegs)}
	for i := range c.segs {
		seg := &c.segs[i]
		if p := d.uvarint(); p > uint64(len(phases)) {
			d.fail(errors.New("segment phase index past the phase table"))
		} else if p > 0 {
			seg.phase = phases[p-1]
		}
		seg.ops, seg.simd, seg.refs = d.uvarint(), d.uvarint(), d.uvarint()
		seg.scalar = d.groups()
		seg.vector = d.groups()
		n := d.count(len(progs))
		prog := progs[:n:n]
		progs = progs[n:]
		d.program(prog)
		s, err := cache.NewLineStream(prog)
		if err != nil {
			d.fail(err)
		}
		seg.stream = s
		if d.err != nil {
			return nil
		}
	}
	if len(progs) != 0 {
		d.fail(errors.New("program words in all disagree with the segments'"))
	}
	return c
}

func (d *decoder) groups() []refGroup {
	n := d.count(len(d.buf) / 2)
	if n == 0 {
		return nil
	}
	g := make([]refGroup, n)
	for i := range g {
		g[i] = refGroup{d.uvarint(), d.uvarint()}
	}
	return g
}

// program decodes len(prog) words of program entries into prog. Entry
// structure is left to cache.NewLineStream; this checks that each run's
// fields fit their words.
func (d *decoder) program(prog []uint64) {
	b := d.buf
	var prev uint64
	for i := 0; i+1 < len(prog); i += 2 {
		h, n1 := shortUvarint(b)
		f1, n2 := shortUvarint(b[max(n1, 0):])
		f2, n3 := shortUvarint(b[max(n1, 0)+max(n2, 0):])
		if n1 <= 0 || n2 <= 0 || n3 <= 0 {
			d.fail(errors.New("truncated or overlong varint"))
			return
		}
		b = b[n1+n2+n3:]
		if h == 0 {
			if f1 > maxLoopGroupField {
				d.fail(errors.New("loop group length out of range"))
				return
			}
			prog[i], prog[i+1] = f1<<1, f2
			continue
		}
		count, stride := h>>1, unzigzag(f1)
		if count == 0 || count >= 1<<31 || stride < -1<<(31-lineBits) || stride >= 1<<(31-lineBits) {
			d.fail(errors.New("program run out of range"))
			return
		}
		prev += uint64(unzigzag(f2) << lineBits)
		prog[i] = count<<33 | uint64(uint32(int32(stride<<lineBits)))<<1 | h&1
		prog[i+1] = prev
	}
	d.buf = b
}

// shortUvarint is binary.Uvarint with the one- to three-byte values most
// program fields take unrolled.
func shortUvarint(b []byte) (uint64, int) {
	if len(b) >= 3 {
		x := uint64(b[0])
		if x < 0x80 {
			return x, 1
		}
		y := uint64(b[1])
		if y < 0x80 {
			return x&0x7f | y<<7, 2
		}
		z := uint64(b[2])
		if z < 0x80 {
			return x&0x7f | (y&0x7f)<<7 | z<<14, 3
		}
	}
	return binary.Uvarint(b)
}

// maxLoopGroupField bounds a loop pair's group field to the width the
// word gives it; cache.NewLineStream applies the real limit.
const maxLoopGroupField = 1<<32 - 1

// validUvarints reports whether enc frames exactly n uvarints: it holds
// n bytes below 0x80, each ending one, and ends with one of them. Any
// such section decodes (decodeEvents). It counts eight bytes at a time.
func validUvarints(enc []byte, n int) bool {
	if len(enc) > 0 && enc[len(enc)-1] >= 0x80 {
		return false
	}
	i := 0
	for ; i+8 <= len(enc); i += 8 {
		n -= bits.OnesCount64(^binary.LittleEndian.Uint64(enc[i:]) & 0x8080808080808080)
	}
	for _, b := range enc[i:] {
		if b < 0x80 {
			n--
		}
	}
	return n == 0
}

// decodeEvents decodes the n uvarints of a section validUvarints
// accepted. An overlong varint, which the encoder never writes, keeps its
// low 64 bits.
func decodeEvents(enc []byte, n int) []uint64 {
	ev := make([]uint64, 0, n)
	var v uint64
	var shift uint
	for _, b := range enc {
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			ev = append(ev, v)
			v, shift = 0, 0
			continue
		}
		shift += 7
	}
	return ev
}
