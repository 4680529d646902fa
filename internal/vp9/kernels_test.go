package vp9

import (
	"testing"

	"gopim/internal/energy"
	"gopim/internal/profile"
)

func testClip(t *testing.T) *CodedClip {
	t.Helper()
	clip, err := CodeClip(192, 128, 4, 28, 5)
	if err != nil {
		t.Fatal(err)
	}
	return clip
}

func TestCodeClipCollectsDecisions(t *testing.T) {
	clip := testClip(t)
	if len(clip.Decisions) != 4 {
		t.Fatalf("decisions for %d frames, want 4", len(clip.Decisions))
	}
	mbs := (192 / 16) * (128 / 16)
	for i, d := range clip.Decisions {
		if len(d) != mbs {
			t.Errorf("frame %d: %d decisions, want %d", i, len(d), mbs)
		}
	}
	// Frame 0 is a keyframe: all intra.
	for _, d := range clip.Decisions[0] {
		if d.Inter {
			t.Fatal("keyframe contains inter blocks")
		}
	}
	// Later frames of panning video should be mostly inter.
	inter := 0
	for _, d := range clip.Decisions[2] {
		if d.Inter {
			inter++
		}
	}
	if inter < mbs/2 {
		t.Errorf("frame 2: only %d/%d inter blocks on panning content", inter, mbs)
	}
}

func TestSubPelKernelProfile(t *testing.T) {
	clip := testClip(t)
	_, phases := profile.Run(profile.SoC(), SubPelKernel(clip))
	p, ok := phases["sub-pixel interpolation"]
	if !ok {
		t.Fatal("missing sub-pixel interpolation phase")
	}
	if p.Mem.BytesRead == 0 || p.SIMDOps == 0 {
		t.Errorf("sub-pel kernel: reads=%d simd=%d; both must be nonzero", p.Mem.BytesRead, p.SIMDOps)
	}
}

func TestDeblockKernelProfile(t *testing.T) {
	clip := testClip(t)
	_, phases := profile.Run(profile.SoC(), DeblockKernel(clip))
	p := phases["deblocking filter"]
	// The filter reads more than it writes (paper: "produces strictly less
	// output than input").
	if p.Mem.BytesRead <= p.Mem.BytesWritten {
		t.Errorf("deblock reads %d <= writes %d; filter must read more than it writes",
			p.Mem.BytesRead, p.Mem.BytesWritten)
	}
}

func TestMEKernelProfile(t *testing.T) {
	clip := testClip(t)
	total, phases := profile.Run(profile.SoC(), MEKernel(clip))
	p := phases["motion estimation"]
	if p.SIMDOps == 0 {
		t.Fatal("ME recorded no SAD work")
	}
	// ME is the most compute-intensive video kernel: its SIMD density per
	// byte moved should exceed the sub-pel kernel's.
	_, spPhases := profile.Run(profile.SoC(), SubPelKernel(clip))
	sp := spPhases["sub-pixel interpolation"]
	meDensity := float64(p.SIMDOps) / float64(p.Mem.Total()+1)
	spDensity := float64(sp.SIMDOps) / float64(sp.Mem.Total()+1)
	if meDensity <= spDensity {
		t.Errorf("ME compute density %.3f <= sub-pel %.3f; ME should be more compute-heavy", meDensity, spDensity)
	}
	if total.Instructions() == 0 {
		t.Error("no instructions")
	}
}

func TestDecodeKernelPhaseShape(t *testing.T) {
	clip := testClip(t)
	_, phases := profile.Run(profile.SoC(), DecodeKernel(clip))
	for _, name := range DecoderPhases {
		if _, ok := phases[name]; !ok {
			t.Errorf("missing decoder phase %q", name)
		}
	}
	// Paper Figure 10: MC (sub-pel) and the deblocking filter dominate;
	// entropy decoding and inverse transform are minor.
	subPel := phases[PhaseSubPel].Mem.Total()
	deblock := phases[PhaseDeblock].Mem.Total()
	inv := phases[PhaseInvXfrm].Mem.Total()
	if subPel <= inv {
		t.Errorf("sub-pel traffic %d <= inverse transform %d; expected sub-pel to dominate", subPel, inv)
	}
	if deblock <= inv {
		t.Errorf("deblock traffic %d <= inverse transform %d", deblock, inv)
	}
}

func TestEncodeKernelPhaseShape(t *testing.T) {
	clip := testClip(t)
	_, phases := profile.Run(profile.SoC(), EncodeKernel(clip))
	for _, name := range EncoderPhases {
		if _, ok := phases[name]; !ok {
			t.Errorf("missing encoder phase %q", name)
		}
	}
	// Paper Figure 15: motion estimation is the largest single consumer.
	me := phases[PhaseME]
	for _, name := range []string{PhaseIntraPred, PhaseTransform, PhaseQuant} {
		if phases[name].Mem.Total() > me.Mem.Total() {
			t.Errorf("%s traffic exceeds motion estimation", name)
		}
	}
}

func TestMeasureHWParams(t *testing.T) {
	clip := testClip(t)
	p := MeasureHWParams(clip)
	// Paper §6.3.1: the decoder reads ~2.9 reference pixels per pixel.
	if p.RefPxPerPx < 1.0 || p.RefPxPerPx > 6 {
		t.Errorf("RefPxPerPx = %.2f, want ~2.9 (1..6)", p.RefPxPerPx)
	}
	if p.BitsPerPixel <= 0 || p.BitsPerPixel > 8 {
		t.Errorf("BitsPerPixel = %.2f out of range", p.BitsPerPixel)
	}
	if p.CompressionRatio <= 0.2 || p.CompressionRatio >= 1.0 {
		t.Errorf("CompressionRatio = %.2f; lossless frame compression should land in (0.2,1)", p.CompressionRatio)
	}
	if p.MEWindowPxPerPx <= 0 {
		t.Error("MEWindowPxPerPx must be positive")
	}
}

// TestMeasureHWParamsMemoized checks that the per-clip result is computed
// once: a second call returns the first call's value without allocating.
func TestMeasureHWParamsMemoized(t *testing.T) {
	clip := testClip(t)
	first := MeasureHWParams(clip)
	if got := MeasureHWParams(clip); got != first {
		t.Fatalf("second call %+v, first %+v", got, first)
	}
	if allocs := testing.AllocsPerRun(10, func() { MeasureHWParams(clip) }); allocs != 0 {
		t.Errorf("memoized MeasureHWParams allocates %.0f times per call, want 0", allocs)
	}
}

func TestHWDecodeTrafficShape(t *testing.T) {
	clip := testClip(t)
	p := MeasureHWParams(clip)

	hd := HWDecodeTraffic(1280, 720, false, p)
	k4 := HWDecodeTraffic(3840, 2160, false, p)
	// Paper: reference frame dominates the traffic.
	if hd[0].Name != CatReferenceFrame || hd[0].Bytes < 0.4*TotalTraffic(hd) {
		t.Errorf("reference frame is %.1f%% of HD decode traffic; expected the dominant share",
			100*hd[0].Bytes/TotalTraffic(hd))
	}
	// Paper: one 4K frame needs ~4.6x the movement of one HD frame.
	ratio := TotalTraffic(k4) / TotalTraffic(hd)
	if ratio < 3.5 || ratio > 6.5 {
		t.Errorf("4K/HD traffic ratio = %.1f, want ~4.6", ratio)
	}
	// Compression reduces reference traffic but not bitstream traffic.
	hdc := HWDecodeTraffic(1280, 720, true, p)
	if !(hdc[0].Bytes < hd[0].Bytes) {
		t.Error("compression did not reduce reference frame traffic")
	}
	if TotalTraffic(hdc) >= TotalTraffic(hd) {
		t.Error("compression did not reduce total traffic")
	}
}

func TestHWEncodeTrafficShape(t *testing.T) {
	clip := testClip(t)
	p := MeasureHWParams(clip)
	hd := HWEncodeTraffic(1280, 720, false, p)
	total := TotalTraffic(hd)
	var ref float64
	for _, it := range hd {
		if it.Name == CatReferenceFrame {
			ref = it.Bytes
		}
	}
	// Paper §7.3.1: reference pixels are ~65% of encoder traffic.
	if frac := ref / total; frac < 0.35 || frac > 0.85 {
		t.Errorf("reference share of encode traffic = %.1f%%, want ~65%%", frac*100)
	}
	// 4K ~4.3x HD.
	k4 := HWEncodeTraffic(3840, 2160, false, p)
	if r := TotalTraffic(k4) / total; r < 3.5 || r > 6 {
		t.Errorf("4K/HD encode traffic ratio = %.1f, want ~4.3", r)
	}
}

func TestHWEnergyFigure21Shape(t *testing.T) {
	clip := testClip(t)
	p := MeasureHWParams(clip)
	params := energy.Default()
	const opsPerPixel = 12

	for _, compressed := range []bool{false, true} {
		items := HWDecodeTraffic(1280, 720, compressed, p)
		base := HWEnergy(items, 1280, 720, HWBaseline, params, opsPerPixel).Total()
		core := HWEnergy(items, 1280, 720, HWPIMCore, params, opsPerPixel).Total()
		acc := HWEnergy(items, 1280, 720, HWPIMAcc, params, opsPerPixel).Total()
		// Paper Figure 21: PIM-Acc always beats the baseline; PIM-Core is
		// worse than PIM-Acc because its computation is an order of
		// magnitude less efficient than dedicated hardware.
		if acc >= base {
			t.Errorf("compressed=%v: PIM-Acc energy %.2g >= baseline %.2g", compressed, acc, base)
		}
		if core <= acc {
			t.Errorf("compressed=%v: PIM-Core %.2g <= PIM-Acc %.2g", compressed, core, acc)
		}
	}
	// Paper: PIM-Acc *without* compression still beats VP9 *with*
	// compression (PIM removes more movement than compression does).
	accNo := HWEnergy(HWDecodeTraffic(1280, 720, false, p), 1280, 720, HWPIMAcc, params, opsPerPixel).Total()
	baseComp := HWEnergy(HWDecodeTraffic(1280, 720, true, p), 1280, 720, HWBaseline, params, opsPerPixel).Total()
	if accNo >= baseComp {
		t.Errorf("PIM-Acc w/o compression (%.3g) should beat baseline with compression (%.3g)", accNo, baseComp)
	}
}
