package trace

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
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

// tracesEqual compares every serialized field of two traces.
func tracesEqual(a, b *Trace) bool {
	return a.Kernel == b.Kernel &&
		reflect.DeepEqual(a.events, b.events) &&
		reflect.DeepEqual(a.phases, b.phases) &&
		reflect.DeepEqual(a.bases, b.bases)
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
// — header and payload alike — and requires decode to reject each variant.
// The FNV-1a payload hash guarantees this for the payload (the per-byte
// multiply by an odd prime is invertible, so differing states never
// re-converge), and the header fields are each checked structurally.
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
// header (magic, version, length, FNV hash) is fully consistent but whose
// payload declares a string longer than the bytes that remain after the
// length varint. The hash check cannot catch this — FNV-64a is trivially
// computable, so an attacker (or a colliding corruption) can always forge a
// matching header — and decode must fail cleanly rather than panic slicing
// past the payload.
func TestDecodeRejectsOversizedStringLength(t *testing.T) {
	for _, payload := range forgedPayloads() {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("payload % x: decode panicked: %v", payload, r)
				}
			}()
			if _, _, err := decodeTrace(withHeader(payload)); err == nil {
				t.Fatalf("payload % x: oversized string length went undetected", payload)
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
// version, payload length and the payload's FNV-64a hash.
func withHeader(payload []byte) []byte {
	data := make([]byte, storeHeaderLen+len(payload))
	copy(data[storeHeaderLen:], payload)
	h := fnv.New64a()
	h.Write(payload)
	copy(data[0:4], storeMagic)
	binary.LittleEndian.PutUint32(data[4:8], storeFormatVersion)
	binary.LittleEndian.PutUint64(data[8:16], uint64(len(payload)))
	binary.LittleEndian.PutUint64(data[16:24], h.Sum64())
	return data
}

// FuzzDecodeTrace fuzzes the entry payload behind a consistent header, so
// mutations reach the field parser rather than failing the hash check.
// Decoding must not panic, no decoded section may hold more elements than
// the payload has bytes, and every accepted entry must re-encode to one
// that decodes to the same key and trace.
func FuzzDecodeTrace(f *testing.F) {
	f.Add(encodeTrace("texture | key", recordedTexture(f, 32, 32))[storeHeaderLen:])
	f.Add(encodeTrace("", &Trace{})[storeHeaderLen:])
	for _, payload := range forgedPayloads() {
		f.Add(payload)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		key, tr, err := decodeTrace(withHeader(payload))
		if err != nil {
			return
		}
		if n := len(payload); len(tr.phases) > n || len(tr.bases) > n || len(tr.events) > n {
			t.Fatalf("%d-byte payload decoded to %d phases, %d bases, %d events",
				n, len(tr.phases), len(tr.bases), len(tr.events))
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
