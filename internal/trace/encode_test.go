package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"gopim/internal/mem"
	"gopim/internal/profile"
)

// randomTrace drives a Recorder with a random but well-formed event mix —
// phases, counter deltas, single- and two-buffer spans over a random buffer
// set — mirroring what real kernels emit.
func randomTrace(rng *rand.Rand, kernel string) *Trace {
	rec := NewRecorder(kernel)
	bufs := make([]*mem.Buffer, 1+rng.Intn(4))
	for i := range bufs {
		bufs[i] = mem.BufferAt(fmt.Sprintf("b%d", i), uint64(rng.Intn(1<<30)))
	}
	buf := func() *mem.Buffer { return bufs[rng.Intn(len(bufs))] }
	for i, n := 0, rng.Intn(200); i < n; i++ {
		switch rng.Intn(4) {
		case 0:
			rec.Phase(fmt.Sprintf("phase%d", rng.Intn(5)))
		case 1:
			rec.Count(uint64(rng.Intn(1000)), uint64(rng.Intn(100)), uint64(rng.Intn(50)))
		case 2:
			op := profile.AccessOp(rng.Intn(4)) // OpLoad..OpStoreV
			rec.Span(op, buf(), rng.Intn(4096), 1+rng.Intn(256), 1+rng.Intn(8), rng.Intn(512))
		case 3:
			op := profile.OpCopyV
			if rng.Intn(2) == 0 {
				op = profile.OpBlendV
			}
			rec.Span2(op, buf(), rng.Intn(4096), buf(), rng.Intn(4096),
				1+rng.Intn(256), 1+rng.Intn(8), rng.Intn(512), rng.Intn(512))
		}
	}
	return rec.Finish()
}

// tracesEqual compares every serialized field of two traces, events
// decoded and the 64 B form included.
func tracesEqual(a, b *Trace) bool {
	return a.Kernel == b.Kernel && a.Words() == b.Words() &&
		reflect.DeepEqual(a.eventWords(), b.eventWords()) &&
		reflect.DeepEqual(a.phases, b.phases) &&
		reflect.DeepEqual(a.bases, b.bases) &&
		compiledEqual(a.compile(mem.LineSize), b.compile(mem.LineSize)) == ""
}

// compiledEqual compares two compiled forms segment by segment and word
// by word, and describes the first difference ("" when equal).
func compiledEqual(a, b *compiled) string {
	if len(a.segs) != len(b.segs) {
		return fmt.Sprintf("%d segments, want %d", len(a.segs), len(b.segs))
	}
	for i := range a.segs {
		x, y := &a.segs[i], &b.segs[i]
		if x.phase != y.phase || x.ops != y.ops || x.simd != y.simd || x.refs != y.refs ||
			!reflect.DeepEqual(x.scalar, y.scalar) || !reflect.DeepEqual(x.vector, y.vector) {
			return fmt.Sprintf("segment %d: header %q %d/%d/%d %v %v, want %q %d/%d/%d %v %v", i,
				x.phase, x.ops, x.simd, x.refs, x.scalar, x.vector, y.phase, y.ops, y.simd, y.refs, y.scalar, y.vector)
		}
		if !slices.Equal(x.stream.Program(), y.stream.Program()) {
			return fmt.Sprintf("segment %d: program of %d words differs from the %d-word one", i,
				len(x.stream.Program()), len(y.stream.Program()))
		}
	}
	return ""
}

// TestEncodeRoundTrip is the format's property test: across randomized
// traces and keys, decode(encode(t)) must reproduce the key and every
// recorded field exactly, including the empty trace.
func TestEncodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("kernel key %d | geom %d", i, rng.Intn(1000))
		tr := randomTrace(rng, fmt.Sprintf("kern%d", i))
		data := encodeTrace(key, tr)
		gotKey, got, err := decodeTrace(data)
		if err != nil {
			t.Fatalf("seed %d: decode failed: %v", i, err)
		}
		if gotKey != key {
			t.Fatalf("seed %d: key round-tripped to %q, want %q", i, gotKey, key)
		}
		if !tracesEqual(tr, got) {
			t.Fatalf("seed %d: trace fields did not round-trip\noriginal: %d events %d phases %d bases\ndecoded:  %d events %d phases %d bases",
				i, len(tr.events), len(tr.phases), len(tr.bases),
				len(got.events), len(got.phases), len(got.bases))
		}
		if tr.MemBytes() != got.MemBytes() {
			t.Fatalf("seed %d: MemBytes changed across round trip: %d -> %d", i, tr.MemBytes(), got.MemBytes())
		}
	}
}

// TestDecodeDetectsEveryBitFlip flips every single bit of an encoded entry
// — header and payload alike, the zero upper half of the checksum field
// included — and requires decode to reject each variant. The CRC-32C
// guarantees this for the payload (every single-bit error changes the
// remainder), and the header fields are each checked structurally.
func TestDecodeDetectsEveryBitFlip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr := randomTrace(rng, "bitflip")
	const key = "bitflip | key"
	data := encodeTrace(key, tr)
	if len(data) > 1<<16 {
		t.Fatalf("fixture trace too large for exhaustive sweep: %d bytes", len(data))
	}
	for i := range data {
		for bit := 0; bit < 8; bit++ {
			mut := make([]byte, len(data))
			copy(mut, data)
			mut[i] ^= 1 << bit
			if gotKey, _, err := decodeTrace(mut); err == nil && gotKey == key {
				t.Fatalf("flip of byte %d bit %d went undetected", i, bit)
			}
		}
	}
}

// TestDecodeDetectsTruncation cuts the entry at every length (and extends
// it by a byte); every variant must fail to decode.
func TestDecodeDetectsTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data := encodeTrace("trunc | key", randomTrace(rng, "trunc"))
	for cut := 0; cut < len(data); cut++ {
		if _, _, err := decodeTrace(data[:cut]); err == nil {
			t.Fatalf("truncation to %d of %d bytes went undetected", cut, len(data))
		}
	}
	if _, _, err := decodeTrace(append(append([]byte{}, data...), 0)); err == nil {
		t.Fatal("a trailing extra byte went undetected")
	}
}

// TestDecodeRejectsOversizedStringLength feeds decode a crafted entry whose
// header (magic, version, length, checksum) is fully consistent but whose
// payload declares a string longer than the bytes that remain after the
// length varint. The checksum cannot catch this — a CRC is trivially
// computable, so an attacker (or a colliding corruption) can always forge a
// matching header — and decode must fail cleanly, on the string length,
// rather than panic slicing past the payload.
func TestDecodeRejectsOversizedStringLength(t *testing.T) {
	for _, payload := range forgedPayloads() {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("payload % x: decode panicked: %v", payload, r)
				}
			}()
			if _, _, err := decodeTrace(withHeader(payload)); !errors.Is(err, errStringLength) {
				t.Fatalf("payload % x: decode error %v, want the oversized string length", payload, err)
			}
		}()
	}
}

// forgedPayloads are payloads whose first string declares more bytes than
// remain after its length varint.
func forgedPayloads() [][]byte {
	return [][]byte{
		{0x05, 'a', 'b', 'c', 'd'}, // length 5, 4 bytes remain post-varint
		{0x01},                     // length 1, nothing remains
		{0xff, 0x01},               // two-byte varint (127+... = 255), 0 remain
	}
}

// withHeader wraps payload in a consistent entry header: magic, format
// version, payload length and the checksum decodeTrace checks.
func withHeader(payload []byte) []byte {
	data := make([]byte, storeHeaderLen+len(payload))
	copy(data[storeHeaderLen:], payload)
	copy(data[0:4], storeMagic)
	binary.LittleEndian.PutUint32(data[4:8], storeFormatVersion)
	binary.LittleEndian.PutUint64(data[8:16], uint64(len(payload)))
	binary.LittleEndian.PutUint64(data[16:24], storeChecksum(payload))
	return data
}

// loopTrace records two one-line accesses alternating over two lines,
// six times as two loads and six times as a load and a store: its 64 B
// program holds a loop of one stride run and a loop of two runs.
func loopTrace() *Trace {
	rec := NewRecorder("loop")
	b := mem.BufferAt("b", 1<<20)
	rec.Phase("p")
	for _, second := range []profile.AccessOp{profile.OpLoad, profile.OpStore} {
		for i := 0; i < 6; i++ {
			rec.Span(profile.OpLoad, b, 0, 8, 1, 0)
			rec.Span(second, b, 4096, 8, 1, 0)
		}
	}
	return rec.Finish()
}

// TestLoweringPinned pins the 64 B forms of fixed traces — random span
// mixes and loopTrace — to loweringPin. Store entries carry these forms,
// so a change to how spans lower or to StreamBuilder's encoding would
// make old entries replay the old lowering: it fails here until
// storeFormatVersion is bumped and loweringPin re-pinned with it.
func TestLoweringPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	traces := []*Trace{loopTrace()}
	for i := 0; i < 8; i++ {
		traces = append(traces, randomTrace(rng, "pin"))
	}
	h := sha256.New()
	for _, tr := range traces {
		for _, seg := range tr.compileOnce(mem.LineSize).segs {
			fmt.Fprintf(h, "%q %d %d %d %v %v\n", seg.phase, seg.ops, seg.simd, seg.refs, seg.scalar, seg.vector)
			binary.Write(h, binary.LittleEndian, seg.stream.Program())
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != loweringPin {
		t.Fatalf("64 B lowering hashes to %s, format version %d pins %s: bump storeFormatVersion and re-pin loweringPin",
			got, storeFormatVersion, loweringPin)
	}
}

// FuzzDecodeTrace fuzzes the entry payload behind a consistent header, so
// mutations reach the section parsers rather than failing the checksum.
// Decoding must not panic, no decoded section — events and program words
// included — may hold more elements than the payload has bytes, and
// every accepted entry must re-encode to one that decodes to the same
// key, events and 64 B form.
func FuzzDecodeTrace(f *testing.F) {
	f.Add(encodeTrace("texture | key", recordedTexture(f, 32, 32))[storeHeaderLen:])
	f.Add(encodeTrace("loop | key", loopTrace())[storeHeaderLen:])
	f.Add(encodeTrace("", &Trace{})[storeHeaderLen:])
	for _, payload := range forgedPayloads() {
		f.Add(payload)
	}
	for _, tc := range malformedSections() {
		f.Add(sectionPayload(tc.words, tc.events, tc.phase, tc.prog))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		key, tr, err := decodeTrace(withHeader(payload))
		if err != nil {
			return
		}
		progWords := 0
		for _, seg := range tr.compile(mem.LineSize).segs {
			progWords += seg.stream.Words()
		}
		if n := len(payload); len(tr.phases) > n || len(tr.bases) > n || tr.Words() > n || progWords > n {
			t.Fatalf("%d-byte payload decoded to %d phases, %d bases, %d event words, %d program words",
				n, len(tr.phases), len(tr.bases), tr.Words(), progWords)
		}
		if len(tr.eventWords()) != tr.Words() {
			t.Fatalf("event section decoded to %d words, header says %d", len(tr.eventWords()), tr.Words())
		}
		key2, tr2, err := decodeTrace(encodeTrace(key, tr))
		if err != nil {
			t.Fatalf("re-encoded entry does not decode: %v", err)
		}
		if key2 != key || !tracesEqual(tr2, tr) {
			t.Fatalf("re-encoded entry decodes to key %q and a different trace, want key %q", key2, key)
		}
	})
}

// sectionPayload is a payload with one phase name "p", no buffers, an
// event section of words words encoded as events, and a 64 B form of one
// segment with phase index phase and program prog, encoded as given.
func sectionPayload(words uint64, events []byte, phase uint64, prog []uint64) []byte {
	buf := appendString(nil, "forged | key")
	buf = appendString(buf, "forged")
	buf = binary.AppendUvarint(buf, 1)
	buf = appendString(buf, "p")
	buf = binary.AppendUvarint(buf, 0) // bases
	buf = binary.AppendUvarint(buf, words)
	buf = appendString(buf, string(events))
	buf = binary.AppendUvarint(buf, 1) // segments
	buf = binary.AppendUvarint(buf, uint64(len(prog)))
	buf = binary.AppendUvarint(buf, phase)
	buf = append(buf, 0, 0, 0, 0, 0) // counters, no ref groups
	return appendProgram(buf, prog)
}

// run is a one-access 64 B program run at line addr; loop is a loop pair
// repeating the group of runs before it extra more times.
func run(addr uint64) []uint64          { return []uint64{1 << 33, addr << lineBits} }
func loop(group, extra uint64) []uint64 { return []uint64{group << 1, extra} }

// malformedSections are event sections and 64 B forms of one malformed
// shape each, with the decoding error each must get.
type malformedSection struct {
	name, err string
	words     uint64
	events    []byte
	phase     uint64
	prog      []uint64
}

func malformedSections() []malformedSection {
	cat := func(parts ...[]uint64) []uint64 { return slices.Concat(parts...) }
	var long []uint64 // cache's maxLoopRuns is 64
	for i := 0; i < 65; i++ {
		long = append(long, run(1)...)
	}
	return []malformedSection{
		{"event count past the framing", "event section", 2, []byte{1}, 1, run(1)},
		{"unterminated event", "event section", 1, []byte{1, 0x80}, 1, run(1)},
		{"odd length", "not whole entries", 0, nil, 1, cat(run(1), []uint64{1 << 33})},
		{"loop group 0", "does not fit", 0, nil, 1, cat(run(1), loop(0, 2))},
		{"group past maxLoopRuns", "does not fit", 0, nil, 1, cat(long, loop(65, 2))},
		{"group before the segment", "does not fit", 0, nil, 1, cat(run(1), loop(2, 2))},
		{"group holding a loop pair", "holds a loop pair", 0, nil, 1, cat(run(1), run(2), loop(1, 2), loop(2, 2))},
		{"phase index past the table", "phase index", 0, nil, 2, run(1)},
	}
}

// TestDecodeRejectsMalformedSections: each malformed event section and
// 64 B form decodes as corrupt, for its own reason, while the same payload
// with well-formed sections decodes.
func TestDecodeRejectsMalformedSections(t *testing.T) {
	good := sectionPayload(2, []byte{1, 0x80, 1}, 1, slices.Concat(run(1), run(2), loop(2, 2)))
	if _, _, err := decodeTrace(withHeader(good)); err != nil {
		t.Fatalf("well-formed sections rejected: %v", err)
	}
	for _, tc := range malformedSections() {
		_, _, err := decodeTrace(withHeader(sectionPayload(tc.words, tc.events, tc.phase, tc.prog)))
		if err == nil || !strings.Contains(err.Error(), tc.err) {
			t.Errorf("%s: decode error %v, want one naming %q", tc.name, err, tc.err)
		}
	}
}

// TestDecodeRejectsForeignVersion patches the header's version field; the
// decoder must reject the entry before looking at the payload, so a format
// bump cleanly invalidates old entries.
func TestDecodeRejectsForeignVersion(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	data := encodeTrace("ver | key", randomTrace(rng, "ver"))
	for _, v := range []uint32{0, storeFormatVersion + 1, ^uint32(0)} {
		mut := make([]byte, len(data))
		copy(mut, data)
		binary.LittleEndian.PutUint32(mut[4:8], v)
		if _, _, err := decodeTrace(mut); err == nil {
			t.Fatalf("foreign format version %d went undetected", v)
		}
	}
}
