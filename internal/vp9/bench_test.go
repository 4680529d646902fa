package vp9

import (
	"testing"

	"gopim/internal/video"
)

func benchClip(b *testing.B, w, h, frames int) []*video.Frame {
	b.Helper()
	return video.NewSynth(w, h, 3, 7).Clip(frames)
}

func BenchmarkEncode360p(b *testing.B) {
	frames := benchClip(b, 640, 368, 4)
	cfg := Config{Width: 640, Height: 368, QIndex: 28}
	pixels := int64(640 * 368 * len(frames))
	b.SetBytes(pixels)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc, err := NewEncoder(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, f := range frames {
			if _, _, err := enc.Encode(f); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkDecode360p(b *testing.B) {
	frames := benchClip(b, 640, 368, 4)
	cfg := Config{Width: 640, Height: 368, QIndex: 28}
	enc, err := NewEncoder(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var streams [][]byte
	for _, f := range frames {
		data, _, err := enc.Encode(f)
		if err != nil {
			b.Fatal(err)
		}
		streams = append(streams, data)
	}
	b.SetBytes(int64(640 * 368 * len(frames)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec, err := NewDecoder(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range streams {
			if _, err := dec.Decode(s); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkDiamondSearch(b *testing.B) {
	s := video.NewSynth(640, 368, 3, 7)
	ref, cur := s.Frame(0), s.Frame(1)
	var st MEStats
	for i := 0; i < b.N; i++ {
		DiamondSearch(cur, ref, (i*16)%(640-32), (i*16)%(368-32), [2]int{0, 0}, 16, &st)
	}
}

func BenchmarkDeblockPlane(b *testing.B) {
	f := video.NewSynth(640, 368, 3, 7).Frame(0)
	plane := make([]uint8, len(f.Y))
	var st DeblockStats
	b.SetBytes(int64(len(plane)))
	for i := 0; i < b.N; i++ {
		copy(plane, f.Y)
		DeblockPlane(plane, 640, 368, 28, &st)
	}
}

func BenchmarkBoolCoder(b *testing.B) {
	b.SetBytes(1)
	w := NewBoolWriter()
	for i := 0; i < b.N; i++ {
		w.Bool(i&3 == 0, 192)
	}
	_ = w.Flush()
}

func BenchmarkFrameCompress(b *testing.B) {
	f := video.NewSynth(640, 368, 3, 7).Frame(0)
	b.SetBytes(int64(len(f.Y) + len(f.U) + len(f.V)))
	for i := 0; i < b.N; i++ {
		CompressFrame(f)
	}
}
