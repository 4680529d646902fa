package vp9

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"gopim/internal/video"
)

// predictLumaRef is the byte-wise clamped reference PredictLuma's fast
// paths must match exactly: every sample goes through YAt.
func predictLumaRef(dst []uint8, stride int, ref *video.Frame, bx, by, w, h int, mv MV, st *MCStats) {
	intX, fracX := floorDiv(mv.X, MVPrecision)
	intY, fracY := floorDiv(mv.Y, MVPrecision)
	srcX, srcY := bx+intX, by+intY
	st.Blocks++
	st.PixelsProduced += uint64(w * h)
	if fracX == 0 && fracY == 0 {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				dst[y*stride+x] = ref.YAt(srcX+x, srcY+y)
			}
		}
		st.RefPixelsRead += uint64(w * h)
		return
	}
	st.SubPelBlocks++
	tmpH := h + 7
	tmp := make([]int32, w*tmpH)
	fx := subPelFilters[fracX]
	for y := 0; y < tmpH; y++ {
		for x := 0; x < w; x++ {
			var acc int32
			for t := 0; t < 8; t++ {
				acc += fx[t] * int32(ref.YAt(srcX+x+t-3, srcY+y-4))
			}
			tmp[y*w+x] = acc
		}
	}
	st.RefPixelsRead += uint64((w + 7) * tmpH)
	st.FilterTapMults += uint64(w * tmpH * 8)
	fy := subPelFilters[fracY]
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			var acc int32
			for t := 0; t < 8; t++ {
				acc += fy[t] * tmp[(y+t)*w+x]
			}
			dst[y*stride+x] = clampPel((acc + 8192) >> 14)
		}
	}
	st.FilterTapMults += uint64(w * h * 8)
}

// diamondSearchRef is DiamondSearch without the probe memo: every
// candidate is priced by the byte-wise SAD.
func diamondSearchRef(cur, ref *video.Frame, bx, by int, pred [2]int, maxRange int, st *MEStats) ([2]int, int) {
	best := pred
	clampDisp(&best, maxRange)
	bestSAD := sadBlockRef(cur, ref, bx, by, best[0], best[1], 16)
	st.SADs++
	st.RefPixelsRead += 256
	inRange := func(c [2]int) bool {
		return c[0] >= -maxRange && c[0] <= maxRange && c[1] >= -maxRange && c[1] <= maxRange
	}
	for step := 4; step >= 1; step /= 2 {
		improved := true
		for improved {
			improved = false
			for _, d := range largeDiamond {
				cand := [2]int{best[0] + d[0]*step, best[1] + d[1]*step}
				if !inRange(cand) {
					continue
				}
				sad := sadBlockRef(cur, ref, bx, by, cand[0], cand[1], 16)
				st.SADs++
				st.RefPixelsRead += 256
				if sad < bestSAD {
					bestSAD, best, improved = sad, cand, true
				}
			}
		}
	}
	improved := true
	for improved {
		improved = false
		for _, d := range smallDiamond {
			cand := [2]int{best[0] + d[0], best[1] + d[1]}
			if !inRange(cand) {
				continue
			}
			sad := sadBlockRef(cur, ref, bx, by, cand[0], cand[1], 16)
			st.SADs++
			st.RefPixelsRead += 256
			if sad < bestSAD {
				bestSAD, best, improved = sad, cand, true
			}
		}
	}
	st.Blocks++
	return best, bestSAD
}

// subPelRefineRef is SubPelRefineBlock without the probe memo, built on
// the reference predictor. It also returns how many distinct candidates
// it priced, so tests can tell when the real memo overflowed.
func subPelRefineRef(cur, ref *video.Frame, bx, by int, whole [2]int, bs int, st *MEStats) (MV, int, int) {
	pred := make([]uint8, bs*bs)
	var mcStats MCStats
	seen := map[MV]bool{}
	cost := func(mv MV) int {
		seen[mv] = true
		predictLumaRef(pred, bs, ref, bx, by, bs, bs, mv, &mcStats)
		var sad int
		for y := 0; y < bs; y++ {
			for x := 0; x < bs; x++ {
				d := int(cur.YAt(bx+x, by+y)) - int(pred[y*bs+x])
				if d < 0 {
					d = -d
				}
				sad += d
			}
		}
		return sad
	}
	best := MV{X: whole[0] * MVPrecision, Y: whole[1] * MVPrecision}
	bestCost := cost(best)
	for step := 4; step >= 1; step /= 2 {
		improved := true
		for improved {
			improved = false
			for _, d := range smallDiamond {
				cand := MV{X: best.X + d[0]*step, Y: best.Y + d[1]*step}
				c := cost(cand)
				st.SubPelProbes++
				if c < bestCost {
					bestCost, best, improved = c, cand, true
				}
			}
		}
	}
	st.RefPixelsRead += mcStats.RefPixelsRead
	return best, bestCost, len(seen)
}

// edgeOffsets lists source coordinates along one axis of a frame of size
// n for a block of size b: fully outside on both sides, straddling each
// edge, and both sides of the 8-tap window's in-frame thresholds (the
// window starts lo samples before the block and ends hi samples after
// it, so it fits when lo <= s <= n-b-hi).
func edgeOffsets(n, b, lo, hi int) []int {
	return []int{-b - 6, -lo - 1, lo - 1, lo, lo + 1, n / 2, n - b - hi - 1, n - b - hi, n - b - hi + 1, n - b + 2, n + 3}
}

// TestPredictLumaMatchesReference sweeps every (fracX, fracY) phase, both
// block sizes and both destination strides over interior blocks, blocks
// straddling each frame edge or the filter window's threshold, and blocks
// fully outside the frame. Bytes (including the untouched stride gap) and
// MCStats must equal the byte-wise clamped reference.
func TestPredictLumaMatchesReference(t *testing.T) {
	ref := noiseFrame(48, 40, 11)
	const bx, by = 8, 8
	for _, bs := range []int{8, 16} {
		for _, stride := range []int{bs, MBSize} {
			size := (bs-1)*stride + bs
			got := make([]uint8, size)
			want := make([]uint8, size)
			for _, sx := range edgeOffsets(ref.W, bs, 3, 4) {
				for _, sy := range edgeOffsets(ref.H, bs, 4, 3) {
					for phase := 0; phase < MVPrecision*MVPrecision; phase++ {
						mv := MV{
							X: (sx-bx)*MVPrecision + phase%MVPrecision,
							Y: (sy-by)*MVPrecision + phase/MVPrecision,
						}
						for i := range got {
							got[i], want[i] = 0xa5, 0xa5
						}
						var gs, ws MCStats
						PredictLuma(got, stride, ref, bx, by, bs, bs, mv, &gs)
						predictLumaRef(want, stride, ref, bx, by, bs, bs, mv, &ws)
						if !bytes.Equal(got, want) {
							t.Fatalf("bs=%d stride=%d src (%d,%d) mv %+v: prediction differs from reference", bs, stride, sx, sy, mv)
						}
						if gs != ws {
							t.Fatalf("bs=%d stride=%d src (%d,%d) mv %+v: stats %+v, want %+v", bs, stride, sx, sy, mv, gs, ws)
						}
					}
				}
			}
		}
	}
}

// shiftedFrame returns f displaced by (dx, dy) whole pixels, edges clamped.
func shiftedFrame(f *video.Frame, dx, dy int) *video.Frame {
	g := video.NewFrame(f.W, f.H)
	for y := 0; y < f.H; y++ {
		for x := 0; x < f.W; x++ {
			g.Y[y*f.W+x] = f.YAt(x+dx, y+dy)
		}
	}
	return g
}

// rampFrame is a smooth diagonal ramp: costs fall steadily toward the true
// displacement, so searches walk far and revisit many candidates.
func rampFrame(w, h int) *video.Frame {
	f := video.NewFrame(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			f.Y[y*w+x] = uint8((3*x + y) / 2)
		}
	}
	return f
}

// TestMotionSearchMatchesReference runs DiamondSearch and
// SubPelRefineBlock against their memo-free reference copies on noise,
// synthetic and ramp frames, at interior and edge blocks. The returned
// vector, cost and MEStats must be identical, and at least one search
// must price more distinct candidates than the memo holds.
func TestMotionSearchMatchesReference(t *testing.T) {
	synth := video.NewSynth(96, 80, 3, 5)
	ramp := rampFrame(96, 80)
	pairs := []struct {
		name     string
		cur, ref *video.Frame
	}{
		{"noise", noiseFrame(96, 80, 21), noiseFrame(96, 80, 22)},
		{"noise-shifted", noiseFrame(96, 80, 23), shiftedFrame(noiseFrame(96, 80, 23), -3, 2)},
		{"synth", synth.Frame(1), synth.Frame(0)},
		{"synth-far", synth.Frame(3), synth.Frame(0)},
		{"ramp", ramp, shiftedFrame(ramp, 11, -7)},
	}
	overflowed := false
	for _, p := range pairs {
		for _, pos := range [][2]int{{0, 0}, {40, 32}, {80, 64}, {16, 64}, {80, 8}, {33, 21}} {
			for _, pred := range [][2]int{{0, 0}, {3, -2}, {-20, 20}} {
				for _, maxRange := range []int{4, 16} {
					var gs, ws MEStats
					gd, gsad := DiamondSearch(p.cur, p.ref, pos[0], pos[1], pred, maxRange, &gs)
					wd, wsad := diamondSearchRef(p.cur, p.ref, pos[0], pos[1], pred, maxRange, &ws)
					if gd != wd || gsad != wsad || gs != ws {
						t.Fatalf("%s DiamondSearch at %v pred %v range %d = %v/%d %+v, want %v/%d %+v",
							p.name, pos, pred, maxRange, gd, gsad, gs, wd, wsad, ws)
					}
				}
			}
			for _, bs := range []int{8, 16} {
				for _, whole := range [][2]int{{0, 0}, {2, -1}, {-6, 5}} {
					var gs, ws MEStats
					gmv, gc := SubPelRefineBlock(p.cur, p.ref, pos[0], pos[1], whole, bs, &gs)
					wmv, wc, distinct := subPelRefineRef(p.cur, p.ref, pos[0], pos[1], whole, bs, &ws)
					if gmv != wmv || gc != wc || gs != ws {
						t.Fatalf("%s SubPelRefineBlock bs=%d at %v from %v = %+v/%d %+v, want %+v/%d %+v",
							p.name, bs, pos, whole, gmv, gc, gs, wmv, wc, ws)
					}
					overflowed = overflowed || distinct > probeMemoSize
				}
			}
		}
	}
	if !overflowed {
		t.Errorf("no sub-pel search priced more than %d distinct candidates; the full-memo path went untested", probeMemoSize)
	}
}

// predictBenchFrame is the frame the sub-pel benchmarks and the perf gate
// interpolate from.
func predictBenchFrame() *video.Frame { return video.NewSynth(640, 368, 3, 7).Frame(0) }

// interiorPos returns the i-th block position of a sweep whose 8-tap
// windows stay inside a 640x368 frame.
func interiorPos(i int) (int, int) { return 16 + (i*16)%(640-64), 16 + (i*7)%(368-64) }

// TestPredictLumaSpeedup is the perf gate for the interior fast path: a
// 16x16 sub-pel prediction must be at least 2x faster than the byte-wise
// reference loop. Timing gates are load-sensitive, so it only runs when
// GOPIM_PERF_GATE is set (scripts/check.sh sets it).
func TestPredictLumaSpeedup(t *testing.T) {
	if os.Getenv("GOPIM_PERF_GATE") == "" {
		t.Skip("set GOPIM_PERF_GATE=1 to run the sub-pel interpolation perf gate")
	}
	ref := predictBenchFrame()
	run := func(predict func([]uint8, int, *video.Frame, int, int, int, int, MV, *MCStats)) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			var dst [16 * 16]uint8
			var st MCStats
			for i := 0; i < b.N; i++ {
				x, y := interiorPos(i)
				predict(dst[:], 16, ref, x, y, 16, 16, MV{X: 5, Y: 3}, &st)
			}
		})
	}
	fast, slow := run(PredictLuma), run(predictLumaRef)
	speedup := float64(slow.NsPerOp()) / float64(fast.NsPerOp())
	t.Logf("fast %d ns/op, reference %d ns/op: %.2fx", fast.NsPerOp(), slow.NsPerOp(), speedup)
	if speedup < 2 {
		t.Fatalf("interior sub-pel speedup %.2fx < 2x (fast %d ns/op, reference %d ns/op)",
			speedup, fast.NsPerOp(), slow.NsPerOp())
	}
}

func BenchmarkSubPelInterpolation(b *testing.B) {
	ref := predictBenchFrame()
	for _, c := range []struct {
		name string
		bs   int
		pos  func(i int) (int, int)
	}{
		{"16x16-interior", 16, interiorPos},
		{"8x8-interior", 8, interiorPos},
		// Alternate the left and top edges: every window is clamped.
		{"edge", 16, func(i int) (int, int) {
			if i%2 == 0 {
				return 0, 16 + (i*7)%(368-64)
			}
			return 16 + (i*16)%(640-64), 0
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			var dst [16 * 16]uint8
			var st MCStats
			b.SetBytes(int64(c.bs * c.bs))
			for i := 0; i < b.N; i++ {
				x, y := c.pos(i)
				PredictLuma(dst[:], c.bs, ref, x, y, c.bs, c.bs, MV{X: 5, Y: 3}, &st)
			}
		})
	}
}

func BenchmarkSubPelRefine(b *testing.B) {
	s := video.NewSynth(640, 368, 3, 7)
	ref, cur := s.Frame(0), s.Frame(1)
	for _, bs := range []int{16, 8} {
		b.Run(fmt.Sprintf("%dx%d", bs, bs), func(b *testing.B) {
			var st MEStats
			for i := 0; i < b.N; i++ {
				x, y := interiorPos(i)
				SubPelRefineBlock(cur, ref, x, y, [2]int{1, 0}, bs, &st)
			}
		})
	}
}
