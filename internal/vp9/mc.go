package vp9

import (
	"math"

	"gopim/internal/video"
)

// Motion compensation (paper Figure 9, block 3). Motion vectors have
// 1/8-pixel resolution; fractional positions are interpolated with the
// 8-tap filter bank below (the even phases of libvpx's eighttap-regular
// filter), exactly the operation the paper identifies as the dominant
// source of decoder data movement.

// MVPrecision is the denominator of motion vector units: 8 units per pixel.
const MVPrecision = 8

// subPelFilters holds one 8-tap filter per 1/8-pel phase, taps summing to
// 128. The bank is a Lanczos-windowed sinc (a=4), the same family as
// libvpx's eighttap filters; phase p interpolates at p/8 of a pixel, so
// phase 4 is the symmetric half-pel filter.
var subPelFilters = buildSubPelFilters()

func buildSubPelFilters() [MVPrecision][8]int32 {
	var out [MVPrecision][8]int32
	out[0][3] = 128
	for p := 1; p < MVPrecision; p++ {
		frac := float64(p) / MVPrecision
		var w [8]float64
		var sum float64
		for t := 0; t < 8; t++ {
			x := float64(t) - 3 - frac
			w[t] = sinc(x) * sinc(x/4) // Lanczos window, a = 4
			sum += w[t]
		}
		// Quantize to integers summing to exactly 128.
		total := int32(0)
		maxIdx := 0
		for t := 0; t < 8; t++ {
			out[p][t] = int32(math.Round(w[t] / sum * 128))
			total += out[p][t]
			if out[p][t] > out[p][maxIdx] {
				maxIdx = t
			}
		}
		out[p][maxIdx] += 128 - total
	}
	return out
}

func sinc(x float64) float64 {
	if x == 0 {
		return 1
	}
	px := math.Pi * x
	return math.Sin(px) / px
}

// MV is a motion vector in 1/8-pel units.
type MV struct {
	X, Y int
}

// MCStats counts the work motion compensation performs, for the hardware
// traffic model and the instrumented kernels.
type MCStats struct {
	Blocks         uint64 // blocks predicted
	SubPelBlocks   uint64 // blocks needing interpolation
	RefPixelsRead  uint64 // reference pixels fetched (including filter apron)
	PixelsProduced uint64 // predicted pixels written
	FilterTapMults uint64 // multiply-accumulates spent in filters
}

// PredictLuma writes the w x h luma prediction for the block at (bx, by)
// displaced by mv, reading from ref. dst is row-major with the given
// stride. Out-of-frame reference samples clamp to the edge.
//
// Blocks whose whole read window lies inside the frame are filtered
// straight from the plane's rows; edge blocks first gather their window
// through YAt's coordinate clamping. Either way the bytes and MCStats are
// exactly those of clamping every filter tap, the same contract SADBlock's
// SWAR path keeps.
func PredictLuma(dst []uint8, stride int, ref *video.Frame, bx, by, w, h int, mv MV, st *MCStats) {
	intX, fracX := floorDiv(mv.X, MVPrecision)
	intY, fracY := floorDiv(mv.Y, MVPrecision)
	srcX := bx + intX
	srcY := by + intY

	st.Blocks++
	st.PixelsProduced += uint64(w * h)
	st.RefPixelsRead += predictReads(mv, w, h)

	if fracX == 0 && fracY == 0 {
		if inFrame(ref, srcX, srcY, srcX+w, srcY+h) {
			for y := 0; y < h; y++ {
				copy(dst[y*stride:y*stride+w], ref.Y[(srcY+y)*ref.W+srcX:])
			}
			return
		}
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				dst[y*stride+x] = ref.YAt(srcX+x, srcY+y)
			}
		}
		return
	}

	st.SubPelBlocks++
	// The horizontal pass filters h + 7 rows so the vertical filter has
	// its apron. In the worst case the decoder fetches (w+7) x (h+7)
	// reference pixels for a w x h block — the paper's "11x11 pixels for a
	// 4x4 sub-block".
	tmpH := h + mcApron
	st.FilterTapMults += uint64(w*tmpH*8 + w*h*8)
	fx, fy := &subPelFilters[fracX], &subPelFilters[fracY]
	// The window starts 4 rows up, so the vertical centre tap reads row srcY+y-1, one above the full-pel copy's.
	x0, y0 := srcX-3, srcY-4
	// Blocks are at most MBSize square, so the window and the intermediate
	// below fit stack arrays; larger callers (none today) fall back to the
	// heap. This runs per predicted block, so avoiding the allocation
	// matters.
	winW := w + mcApron
	var src []uint8 // the window's top-left sample, rows pitch apart
	var pitch int
	if inFrame(ref, x0, y0, x0+winW, y0+tmpH) {
		src, pitch = ref.Y[y0*ref.W+x0:], ref.W
	} else {
		// Edge block: gather the clamped window once, one YAt per sample
		// instead of one per filter tap.
		var winArr [(MBSize + mcApron) * (MBSize + mcApron)]uint8
		src, pitch = winArr[:], winW
		if winW*tmpH > len(winArr) {
			src = make([]uint8, winW*tmpH)
		}
		for y := 0; y < tmpH; y++ {
			for x := 0; x < winW; x++ {
				src[y*winW+x] = ref.YAt(x0+x, y0+y)
			}
		}
	}
	// A zero phase makes its pass the identity (a lone 128 tap), so that
	// pass is skipped; the other pass is then normalized by 128 instead of
	// 128*128, which rounds identically.
	switch {
	case fracY == 0:
		for y := 0; y < h; y++ {
			filterRow(dst[y*stride:y*stride+w], src[(y+3)*pitch:], fx)
		}
	case fracX == 0:
		var rows [8][]uint8
		for y := 0; y < h; y++ {
			for t := range rows {
				rows[t] = src[(y+t)*pitch+3:]
			}
			filterCols(dst[y*stride:y*stride+w], &rows, fy, 64, 7)
		}
	default:
		var tmpArr [MBSize * (MBSize + mcApron)]int32
		tmp := tmpArr[:]
		if w*tmpH > len(tmpArr) {
			tmp = make([]int32, w*tmpH)
		}
		var rows [8][]int32
		for y := 0; y < tmpH; y++ {
			filterRowTaps(tmp[y*w:y*w+w], src[y*pitch:], fx)
		}
		for y := 0; y < h; y++ {
			for t := range rows {
				rows[t] = tmp[(y+t)*w:]
			}
			filterCols(dst[y*stride:y*stride+w], &rows, fy, 8192, 14)
		}
	}
}

// filterRowTaps is the horizontal pass: out[x] is the 8-tap filter f
// applied to row[x : x+8], left at its 128x scale.
func filterRowTaps(out []int32, row []uint8, f *[8]int32) {
	f0, f1, f2, f3, f4, f5, f6, f7 := f[0], f[1], f[2], f[3], f[4], f[5], f[6], f[7]
	for x := range out {
		p := row[x : x+8 : x+8]
		out[x] = f0*int32(p[0]) + f1*int32(p[1]) + f2*int32(p[2]) + f3*int32(p[3]) +
			f4*int32(p[4]) + f5*int32(p[5]) + f6*int32(p[6]) + f7*int32(p[7])
	}
}

// filterRow is the horizontal pass of a block whose vertical phase is
// zero: filterRowTaps normalized straight to pixels.
func filterRow(out, row []uint8, f *[8]int32) {
	f0, f1, f2, f3, f4, f5, f6, f7 := f[0], f[1], f[2], f[3], f[4], f[5], f[6], f[7]
	for x := range out {
		p := row[x : x+8 : x+8]
		acc := f0*int32(p[0]) + f1*int32(p[1]) + f2*int32(p[2]) + f3*int32(p[3]) +
			f4*int32(p[4]) + f5*int32(p[5]) + f6*int32(p[6]) + f7*int32(p[7])
		out[x] = clampPel((acc + 64) >> 7)
	}
}

// filterCols writes out[x] = clampPel((sum over t of f[t]*rows[t][x] +
// round) >> shift): one output row of the vertical 8-tap pass.
func filterCols[T uint8 | int32](out []uint8, rows *[8][]T, f *[8]int32, round int32, shift uint) {
	n := len(out)
	r0, r1, r2, r3 := rows[0][:n], rows[1][:n], rows[2][:n], rows[3][:n]
	r4, r5, r6, r7 := rows[4][:n], rows[5][:n], rows[6][:n], rows[7][:n]
	f0, f1, f2, f3, f4, f5, f6, f7 := f[0], f[1], f[2], f[3], f[4], f[5], f[6], f[7]
	for x := range out {
		acc := f0*int32(r0[x]) + f1*int32(r1[x]) + f2*int32(r2[x]) + f3*int32(r3[x]) +
			f4*int32(r4[x]) + f5*int32(r5[x]) + f6*int32(r6[x]) + f7*int32(r7[x])
		out[x] = clampPel((acc + round) >> shift)
	}
}

// predictReads is the number of reference pixels PredictLuma fetches for a
// w x h block at mv: the block itself at whole-pel positions, the block
// plus the 8-tap filter apron otherwise.
func predictReads(mv MV, w, h int) uint64 {
	if !isSubPel(mv) {
		return uint64(w * h)
	}
	return uint64((w + mcApron) * (h + mcApron))
}

// inFrame reports whether the rectangle [x0, x1) x [y0, y1) lies entirely
// inside f, so raw row slices can bypass YAt's clamping.
func inFrame(f *video.Frame, x0, y0, x1, y1 int) bool {
	return x0 >= 0 && y0 >= 0 && x1 <= f.W && y1 <= f.H
}

func floorDiv(v, d int) (q, r int) {
	q = v / d
	r = v % d
	if r < 0 {
		q--
		r += d
	}
	return q, r
}

func clampPel(v int32) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v)
}
