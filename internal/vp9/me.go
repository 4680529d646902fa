package vp9

import "gopim/internal/video"

// Motion estimation (paper Figure 14, block 4): diamond search over up to
// three reference frames with sum-of-absolute-differences matching, then
// sub-pixel refinement, as in libvpx's encoder.

// MEStats counts motion estimation work for the hardware traffic model and
// the instrumented kernels.
type MEStats struct {
	Blocks        uint64 // macro-blocks searched
	SADs          uint64 // block comparisons performed
	RefPixelsRead uint64 // candidate reference pixels fetched
	SubPelProbes  uint64 // sub-pel refinement comparisons
}

// SAD16 returns the sum of absolute differences between the 16x16 block of
// cur at (bx, by) and ref displaced by (dx, dy) whole pixels.
func SAD16(cur, ref *video.Frame, bx, by, dx, dy int) int {
	return SADBlock(cur, ref, bx, by, dx, dy, 16)
}

// SADBlock is SAD16 for an arbitrary square block size. Fully in-bounds
// blocks take the word-parallel SWAR path (swar.go), which is exactly
// equivalent to the byte loop below; edge blocks fall back to YAt's
// coordinate clamping.
func SADBlock(cur, ref *video.Frame, bx, by, dx, dy, bs int) int {
	if bs%8 == 0 && inFrame(cur, bx, by, bx+bs, by+bs) && inFrame(ref, bx+dx, by+dy, bx+dx+bs, by+dy+bs) {
		return sadBlockSWAR(cur, ref, bx, by, dx, dy, bs)
	}
	var sad int
	for y := 0; y < bs; y++ {
		cy := by + y
		for x := 0; x < bs; x++ {
			c := int(cur.YAt(bx+x, cy))
			r := int(ref.YAt(bx+x+dx, cy+dy))
			d := c - r
			if d < 0 {
				d = -d
			}
			sad += d
		}
	}
	return sad
}

// diamond patterns: a large step-halving diamond followed by the small
// one-pel diamond (Zhu & Ma's diamond search, which libvpx uses).
var largeDiamond = [8][2]int{{0, -2}, {1, -1}, {2, 0}, {1, 1}, {0, 2}, {-1, 1}, {-2, 0}, {-1, -1}}
var smallDiamond = [4][2]int{{0, -1}, {1, 0}, {0, 1}, {-1, 0}}

// DiamondSearch finds the best whole-pel displacement of the 16x16 block at
// (bx, by) in ref, starting from the predictor pred (whole-pel units).
// It returns the displacement and its SAD.
//
// Successive diamonds overlap, so the search revisits candidates it has
// already priced; a per-call memo returns their SAD without recomputing
// it. Every probe, repeat or not, still counts one SAD and its 256
// reference pixels in st.
func DiamondSearch(cur, ref *video.Frame, bx, by int, pred [2]int, maxRange int, st *MEStats) ([2]int, int) {
	var memo probeMemo
	sad16 := func(d [2]int) int {
		st.SADs++
		st.RefPixelsRead += 256
		k := probeKey(d[0], d[1])
		if sad, ok := memo.get(k); ok {
			return sad
		}
		sad := SAD16(cur, ref, bx, by, d[0], d[1])
		memo.put(k, sad)
		return sad
	}
	best := pred
	clampDisp(&best, maxRange)
	bestSAD := sad16(best)

	// Large diamond with step halving.
	for step := 4; step >= 1; step /= 2 {
		improved := true
		for improved {
			improved = false
			for _, d := range largeDiamond {
				cand := [2]int{best[0] + d[0]*step, best[1] + d[1]*step}
				if cand[0] < -maxRange || cand[0] > maxRange || cand[1] < -maxRange || cand[1] > maxRange {
					continue
				}
				if sad := sad16(cand); sad < bestSAD {
					bestSAD = sad
					best = cand
					improved = true
				}
			}
		}
	}
	// Small diamond polish.
	improved := true
	for improved {
		improved = false
		for _, d := range smallDiamond {
			cand := [2]int{best[0] + d[0], best[1] + d[1]}
			if cand[0] < -maxRange || cand[0] > maxRange || cand[1] < -maxRange || cand[1] > maxRange {
				continue
			}
			if sad := sad16(cand); sad < bestSAD {
				bestSAD = sad
				best = cand
				improved = true
			}
		}
	}
	st.Blocks++
	return best, bestSAD
}

// probeMemoSize bounds the per-call memo of priced candidates. A typical
// search prices a few dozen distinct positions; once the memo is full,
// further candidates are simply computed.
const probeMemoSize = 64

// probeMemo maps candidate positions already priced by one search call to
// their cost: a fixed stack array scanned linearly, newest first, since
// repeats are usually the neighbours of a recent move.
type probeMemo struct {
	n    int
	keys [probeMemoSize]uint64
	vals [probeMemoSize]int
}

func probeKey(x, y int) uint64 {
	return uint64(uint32(x))<<32 | uint64(uint32(y))
}

func (m *probeMemo) get(k uint64) (int, bool) {
	for i := m.n - 1; i >= 0; i-- {
		if m.keys[i] == k {
			return m.vals[i], true
		}
	}
	return 0, false
}

func (m *probeMemo) put(k uint64, v int) {
	if m.n < probeMemoSize {
		m.keys[m.n] = k
		m.vals[m.n] = v
		m.n++
	}
}

func clampDisp(d *[2]int, maxRange int) {
	for i := 0; i < 2; i++ {
		if d[i] < -maxRange {
			d[i] = -maxRange
		}
		if d[i] > maxRange {
			d[i] = maxRange
		}
	}
}

// SubPelRefine refines a whole-pel displacement to 1/8-pel resolution by
// hierarchical probing at half, quarter, and eighth steps, comparing the
// interpolated prediction against the source block.
func SubPelRefine(cur, ref *video.Frame, bx, by int, whole [2]int, st *MEStats) (MV, int) {
	return SubPelRefineBlock(cur, ref, bx, by, whole, 16, st)
}

// SubPelRefineBlock is SubPelRefine for an arbitrary square block size.
// Like DiamondSearch it memoizes the candidates it has priced; a repeated
// probe still counts in st.SubPelProbes and reads the reference pixels its
// prediction would fetch.
func SubPelRefineBlock(cur, ref *video.Frame, bx, by int, whole [2]int, bs int, st *MEStats) (MV, int) {
	best := MV{X: whole[0] * MVPrecision, Y: whole[1] * MVPrecision}
	// The prediction scratch lives on the stack for the block sizes motion
	// estimation uses (bs <= MBSize); this is called per candidate block.
	var predArr [MBSize * MBSize]uint8
	pred := predArr[:]
	if bs*bs > len(predArr) {
		pred = make([]uint8, bs*bs)
	} else {
		pred = predArr[:bs*bs]
	}
	var memo probeMemo
	var mcStats MCStats
	cost := func(mv MV) int {
		k := probeKey(mv.X, mv.Y)
		if c, ok := memo.get(k); ok {
			mcStats.RefPixelsRead += predictReads(mv, bs, bs)
			return c
		}
		c := sadPred(cur, ref, bx, by, mv, pred, bs, &mcStats)
		memo.put(k, c)
		return c
	}
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
					bestCost = c
					best = cand
					improved = true
				}
			}
		}
	}
	st.RefPixelsRead += mcStats.RefPixelsRead
	return best, bestCost
}

func sadPred(cur, ref *video.Frame, bx, by int, mv MV, pred []uint8, bs int, mcStats *MCStats) int {
	PredictLuma(pred, bs, ref, bx, by, bs, bs, mv, mcStats)
	if bs%8 == 0 && inFrame(cur, bx, by, bx+bs, by+bs) {
		return sadPredSWAR(cur, bx, by, pred, bs)
	}
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
