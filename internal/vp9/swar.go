package vp9

// SWAR (SIMD-within-a-register) sum-of-absolute-differences: eight luma
// samples are processed per uint64, splitting the packed bytes into even and
// odd 16-bit lanes so the absolute difference can be formed branch-free with
// biased subtraction. The fast path is exact — it returns the same integer
// SAD as the byte-wise loop — so motion-search decisions and coded output
// are unchanged. Callers fall back to the scalar loop whenever a block
// touches the frame edge, where Frame.YAt's coordinate clamping applies.

import (
	"encoding/binary"

	"gopim/internal/video"
)

const (
	swarLo16 = 0x00ff00ff00ff00ff // even-byte extraction into 16-bit lanes
	swarBias = 0x0100010001000100 // per-lane bias keeping subtraction borrow-free
	swarOnes = 0x0001000100010001 // lane-sum multiplier
)

// sad8 returns the sum of absolute differences of the eight byte pairs
// packed in x and y.
func sad8(x, y uint64) uint64 {
	e := absLanes(x&swarLo16, y&swarLo16)
	o := absLanes((x>>8)&swarLo16, (y>>8)&swarLo16)
	// Each of the four 16-bit lanes of e+o is at most 510, so multiplying
	// by swarOnes accumulates the exact lane sum into the top 16 bits.
	return ((e + o) * swarOnes) >> 48
}

// absLanes computes |x-y| in each of four 16-bit lanes holding byte values.
// Both biased differences stay within their lane (range [0x001, 0x1ff]), so
// no carries cross lanes; the lane's sign bit at position 8 selects which
// difference is the non-negative one.
func absLanes(x, y uint64) uint64 {
	d1 := x + swarBias - y
	d2 := y + swarBias - x
	i1 := (d1 >> 8) & swarOnes // 1 where x >= y
	i2 := (d2 >> 8) & swarOnes // 1 where y >= x
	m1 := (i1 << 9) - i1       // 0x1ff where selected, 0 elsewhere
	m2 := (i2 << 9) - i2
	return ((d1 & m1) | (d2 & m2)) - swarBias
}

// sadBlockSWAR is the word-parallel body of SADBlock for fully in-bounds
// blocks with bs a multiple of 8.
func sadBlockSWAR(cur, ref *video.Frame, bx, by, dx, dy, bs int) int {
	var sad uint64
	for y := 0; y < bs; y++ {
		c := cur.Y[(by+y)*cur.W+bx:]
		r := ref.Y[(by+dy+y)*ref.W+bx+dx:]
		for x := 0; x+8 <= bs; x += 8 {
			sad += sad8(binary.LittleEndian.Uint64(c[x:]), binary.LittleEndian.Uint64(r[x:]))
		}
	}
	return int(sad)
}

// sadPredSWAR compares an in-bounds source block against a packed bs x bs
// prediction eight samples at a time.
func sadPredSWAR(cur *video.Frame, bx, by int, pred []uint8, bs int) int {
	var sad uint64
	for y := 0; y < bs; y++ {
		c := cur.Y[(by+y)*cur.W+bx:]
		p := pred[y*bs:]
		for x := 0; x+8 <= bs; x += 8 {
			sad += sad8(binary.LittleEndian.Uint64(c[x:]), binary.LittleEndian.Uint64(p[x:]))
		}
	}
	return int(sad)
}
