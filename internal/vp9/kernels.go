package vp9

import (
	"fmt"
	"hash/fnv"
	"sync"

	"gopim/internal/mem"
	"gopim/internal/profile"
	"gopim/internal/video"
)

// Instrumented kernels for the paper's video PIM targets. Each kernel
// replays real codec work — the motion vectors, mode decisions and
// reconstructions of an actual encode of a synthetic clip — against
// simulated memory, so the cache/DRAM models see the true access pattern
// of sub-pixel interpolation, deblocking and motion estimation.

// CodedClip bundles a synthetic clip with its real encode artifacts.
type CodedClip struct {
	Cfg       Config
	Frames    []*video.Frame
	Recons    []*video.Frame
	Streams   [][]byte
	Decisions [][]Decision // per frame, raster macro-block order
	EncStats  Stats

	fingerprint string // content hash, set by CodeClip; keys the trace cache

	hwOnce sync.Once
	hw     HWParams // MeasureHWParams' result, computed once per clip
}

// Fingerprint returns a string identifying the clip's content for
// memoization: configuration, frame count, and a hash of the coded
// bitstreams (which pin down the frames and decisions that produced them).
// Clips built outside CodeClip hash on demand.
func (c *CodedClip) Fingerprint() string {
	if c.fingerprint == "" {
		return c.computeFingerprint()
	}
	return c.fingerprint
}

func (c *CodedClip) computeFingerprint() string {
	h := fnv.New64a()
	for _, s := range c.Streams {
		h.Write(s)
	}
	return fmt.Sprintf("%dx%d q%d f%d h%016x",
		c.Cfg.Width, c.Cfg.Height, c.Cfg.QIndex, len(c.Frames), h.Sum64())
}

// CodeClip encodes nFrames of synthetic w x h video and collects the
// decisions the instrumented kernels replay.
func CodeClip(w, h, nFrames, qIndex int, seed uint32) (*CodedClip, error) {
	cfg := Config{Width: w, Height: h, QIndex: qIndex}
	enc, err := NewEncoder(cfg)
	if err != nil {
		return nil, err
	}
	clip := &CodedClip{Cfg: cfg.withDefaults()}
	var current []Decision
	enc.OnMB = func(mbx, mby int, d Decision) { current = append(current, d) }
	synth := video.NewSynth(w, h, 4, seed)
	for i := 0; i < nFrames; i++ {
		src := synth.Frame(i)
		current = nil
		data, recon, err := enc.Encode(src)
		if err != nil {
			return nil, err
		}
		clip.Frames = append(clip.Frames, src)
		clip.Recons = append(clip.Recons, recon)
		clip.Streams = append(clip.Streams, data)
		clip.Decisions = append(clip.Decisions, append([]Decision(nil), current...))
	}
	clip.EncStats = enc.Stats
	clip.fingerprint = clip.computeFingerprint()
	return clip, nil
}

// refFor returns the reference frame the decoder would use for frame n,
// reference slot ri (recons are post-deblock, most recent first).
func (c *CodedClip) refFor(n, ri int) *video.Frame {
	idx := n - 1 - ri
	if idx < 0 {
		idx = 0
	}
	return c.Recons[idx]
}

// frameBuffers holds one frame's planes in simulated memory.
type frameBuffers struct {
	y, u, v *mem.Buffer
	w, h    int
}

func allocFrame(ctx *profile.Ctx, name string, f *video.Frame) frameBuffers {
	fb := frameBuffers{w: f.W, h: f.H}
	fb.y = ctx.Alloc(name+".Y", len(f.Y))
	fb.u = ctx.Alloc(name+".U", len(f.U))
	fb.v = ctx.Alloc(name+".V", len(f.V))
	copy(fb.y.Data, f.Y)
	copy(fb.u.Data, f.U)
	copy(fb.v.Data, f.V)
	return fb
}

const mcApron = 7 // 8-tap filter support around a block

// traceSubPelMB traces the reference fetch, filtering and prediction write
// of one 16x16 sub-pel interpolated block at (bx, by) with motion mv.
func traceSubPelMB(ctx *profile.Ctx, ref frameBuffers, pred *mem.Buffer, bx, by int, mv MV) {
	traceSubPelBlock(ctx, ref, pred, bx, by, mv, MBSize)
}

// traceSubPelBlock traces a bs x bs sub-pel interpolated block; smaller
// blocks pay relatively more for the filter apron, the amplification the
// paper's "11x11 pixels for a 4x4 sub-block" describes.
func traceSubPelBlock(ctx *profile.Ctx, ref frameBuffers, pred *mem.Buffer, bx, by int, mv MV, bs int) {
	intX, _ := floorDiv(mv.X, MVPrecision)
	intY, _ := floorDiv(mv.Y, MVPrecision)
	w := bs + mcApron
	h := bs + mcApron
	x := clampInt(bx+intX-mcApron/2, 0, ref.w-1)
	n := w
	if x+n > ref.w {
		n = ref.w - x
	}
	if y0 := by + intY - mcApron/2; y0 >= 0 && y0+h <= ref.h {
		// Interior block: rows are uniform, one span covers the window.
		ctx.LoadSpanV(ref.y, y0*ref.w+x, n, h, ref.w)
	} else {
		// Frame edge: vertical clamping repeats boundary rows.
		for r := 0; r < h; r++ {
			y := clampInt(by+intY+r-mcApron/2, 0, ref.h-1)
			ctx.LoadV(ref.y, y*ref.w+x, n)
		}
	}
	// Horizontal + vertical 8-tap passes.
	ctx.SIMD(bs*h*8/4 + bs*bs*8/4)
	ctx.Ops(bs * 2) // per-row setup
	ctx.StoreV(pred, 0, bs*bs)
}

// traceFullPelMB traces a whole-pel copy block.
func traceFullPelMB(ctx *profile.Ctx, ref frameBuffers, pred *mem.Buffer, bx, by int, mv MV) {
	traceFullPelBlock(ctx, ref, pred, bx, by, mv, MBSize)
}

func traceFullPelBlock(ctx *profile.Ctx, ref frameBuffers, pred *mem.Buffer, bx, by int, mv MV, bs int) {
	intX, _ := floorDiv(mv.X, MVPrecision)
	intY, _ := floorDiv(mv.Y, MVPrecision)
	x := clampInt(bx+intX, 0, ref.w-1)
	n := bs
	if x+n > ref.w {
		n = ref.w - x
	}
	if y0 := by + intY; y0 >= 0 && y0+bs <= ref.h {
		ctx.LoadSpanV(ref.y, y0*ref.w+x, n, bs, ref.w)
	} else {
		for r := 0; r < bs; r++ {
			y := clampInt(by+intY+r, 0, ref.h-1)
			ctx.LoadV(ref.y, y*ref.w+x, n)
		}
	}
	ctx.StoreV(pred, 0, bs*bs)
	ctx.Ops(bs)
}

// traceInterMB dispatches one inter macro-block's prediction trace across
// its partition, classifying each (sub-)block as sub-pel or whole-pel.
// It returns whether any sub-block needed interpolation.
func traceInterMB(ctx *profile.Ctx, ref frameBuffers, pred *mem.Buffer, bx, by int, d Decision, subPelPhase, fullPelPhase string) {
	if !d.Split {
		if isSubPel(d.MV) {
			ctx.SetPhase(subPelPhase)
			traceSubPelBlock(ctx, ref, pred, bx, by, d.MV, MBSize)
		} else {
			ctx.SetPhase(fullPelPhase)
			traceFullPelBlock(ctx, ref, pred, bx, by, d.MV, MBSize)
		}
		return
	}
	for q := 0; q < 4; q++ {
		qx, qy := bx+(q%2)*8, by+(q/2)*8
		if isSubPel(d.SubMVs[q]) {
			ctx.SetPhase(subPelPhase)
			traceSubPelBlock(ctx, ref, pred, qx, qy, d.SubMVs[q], 8)
		} else {
			ctx.SetPhase(fullPelPhase)
			traceFullPelBlock(ctx, ref, pred, qx, qy, d.SubMVs[q], 8)
		}
	}
}

func isSubPel(mv MV) bool {
	return mv.X%MVPrecision != 0 || mv.Y%MVPrecision != 0
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// SubPelKernel returns the sub-pixel interpolation PIM target: replaying
// every sub-pel motion-compensated block of the clip (paper §6.2.2).
func SubPelKernel(clip *CodedClip) profile.Kernel {
	return profile.KernelFunc{
		KernelName: fmt.Sprintf("sub-pixel interpolation %dx%d", clip.Cfg.Width, clip.Cfg.Height),
		Key:        "vp9-subpel " + clip.Fingerprint(),
		Fn: func(ctx *profile.Ctx) {
			pred := ctx.Alloc("prediction", MBSize*MBSize)
			mbCols := clip.Cfg.Width / MBSize
			for n := 1; n < len(clip.Frames); n++ {
				refs := [3]frameBuffers{}
				for ri := 0; ri < 3; ri++ {
					refs[ri] = allocFrame(ctx, fmt.Sprintf("ref%d-%d", n, ri), clip.refFor(n, ri))
				}
				ctx.SetPhase("sub-pixel interpolation")
				var scratch [MBSize * MBSize]uint8
				var st MCStats
				for i, d := range clip.Decisions[n] {
					if !d.Inter {
						continue
					}
					bx, by := (i%mbCols)*MBSize, (i/mbCols)*MBSize
					switch {
					case d.Split:
						for q := 0; q < 4; q++ {
							if isSubPel(d.SubMVs[q]) {
								traceSubPelBlock(ctx, refs[d.Ref], pred, bx+(q%2)*8, by+(q/2)*8, d.SubMVs[q], 8)
							}
						}
						PredictLuma(scratch[:], MBSize, clip.refFor(n, d.Ref), bx, by, MBSize, MBSize, d.SubMVs[0], &st)
					case isSubPel(d.MV):
						traceSubPelBlock(ctx, refs[d.Ref], pred, bx, by, d.MV, MBSize)
						PredictLuma(scratch[:], MBSize, clip.refFor(n, d.Ref), bx, by, MBSize, MBSize, d.MV, &st)
					}
				}
			}
		},
	}
}

// DeblockKernel returns the deblocking filter PIM target: filtering every
// reconstructed frame of the clip (paper §6.2.2).
func DeblockKernel(clip *CodedClip) profile.Kernel {
	return profile.KernelFunc{
		KernelName: fmt.Sprintf("deblocking filter %dx%d", clip.Cfg.Width, clip.Cfg.Height),
		Key:        "vp9-deblock " + clip.Fingerprint(),
		Fn: func(ctx *profile.Ctx) {
			for n := 0; n < len(clip.Recons); n++ {
				fb := allocFrame(ctx, fmt.Sprintf("recon%d", n), clip.Recons[n])
				ctx.SetPhase("deblocking filter")
				traceDeblockPlane(ctx, fb.y, fb.w, fb.h)
				traceDeblockPlane(ctx, fb.u, fb.w/2, fb.h/2)
				traceDeblockPlane(ctx, fb.v, fb.w/2, fb.h/2)
				var st DeblockStats
				DeblockPlane(fb.y.Data, fb.w, fb.h, clip.Cfg.QIndex, &st)
			}
		},
	}
}

// traceDeblockPlane traces the filter's sweep over one plane. The filter
// walks the frame in raster band order (one 4-row band at a time, as the
// superblock raster scan does): each band streams in from memory once, all
// vertical- and horizontal-edge taps within the band hit the band's
// resident rows, and the modified rows stream back out. The per-edge tap
// work is accounted as cache-resident references and ALU operations.
func traceDeblockPlane(ctx *profile.Ctx, plane *mem.Buffer, w, h int) {
	for y0 := 0; y0 < h; y0 += 4 {
		rows := 4
		if h-y0 < rows {
			rows = h - y0
		}
		ctx.LoadV(plane, y0*w, rows*w)
		ctx.StoreV(plane, y0*w, rows*w)
		// Vertical edges: one 4-tap check per row per 4-pixel boundary.
		vEdges := (w / 4) * rows
		// Horizontal edges: one per pixel on the band's top boundary.
		hEdges := w
		ctx.Refs(vEdges + hEdges)
		ctx.SIMD((vEdges + hEdges) * 6 / 4) // vectorized filter taps
	}
}

// MEKernel returns the motion estimation PIM target: re-running diamond
// search plus sub-pel refinement over the clip's frames against up to
// three reference frames (paper §7.2.2).
func MEKernel(clip *CodedClip) profile.Kernel {
	return profile.KernelFunc{
		KernelName: fmt.Sprintf("motion estimation %dx%d", clip.Cfg.Width, clip.Cfg.Height),
		Key:        "vp9-me " + clip.Fingerprint(),
		Fn: func(ctx *profile.Ctx) {
			mbCols := clip.Cfg.Width / MBSize
			mbRows := clip.Cfg.Height / MBSize
			for n := 1; n < len(clip.Frames); n++ {
				cur := allocFrame(ctx, fmt.Sprintf("cur%d", n), clip.Frames[n])
				refs := [3]frameBuffers{}
				realRefs := [3]*video.Frame{}
				for ri := 0; ri < 3; ri++ {
					refs[ri] = allocFrame(ctx, fmt.Sprintf("ref%d-%d", n, ri), clip.refFor(n, ri))
					realRefs[ri] = clip.refFor(n, ri)
				}
				ctx.SetPhase("motion estimation")
				var st MEStats
				for mby := 0; mby < mbRows; mby++ {
					for mbx := 0; mbx < mbCols; mbx++ {
						bx, by := mbx*MBSize, mby*MBSize
						// Current block is read once and stays resident.
						ctx.LoadSpanV(cur.y, by*cur.w+bx, MBSize, MBSize, cur.w)
						for ri := 0; ri < 3; ri++ {
							before := st.SADs
							whole, _ := DiamondSearch(clip.Frames[n], realRefs[ri], bx, by, [2]int{0, 0}, clip.Cfg.SearchRange, &st)
							SubPelRefine(clip.Frames[n], realRefs[ri], bx, by, whole, &st)
							sads := st.SADs - before
							// Each candidate fetches a 16x16 window around
							// the evolving search center.
							for s := uint64(0); s < sads+8; s++ {
								dy := int(s%5) - 2
								y := clampInt(by+whole[1]+dy*3, 0, refs[ri].h-MBSize)
								x := clampInt(bx+whole[0]+int(s%3)-1, 0, refs[ri].w-MBSize)
								ctx.LoadSpanV(refs[ri].y, y*refs[ri].w+x, MBSize, MBSize/4, 4*refs[ri].w)
								ctx.SIMD(MBSize * MBSize / 4 / 4) // SAD rows sampled
							}
							ctx.SIMD(int(sads) * MBSize * MBSize / 4)
							ctx.Ops(int(sads) * 8)
						}
					}
				}
			}
		},
	}
}
