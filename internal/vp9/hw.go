package vp9

import (
	"math"
	"sync"

	"gopim/internal/energy"
	"gopim/internal/lzo"
	"gopim/internal/video"
)

// deltaPool recycles the plane-sized delta-filter scratch across
// CompressFrame calls (one per plane per frame on the hardware-codec
// measurement path).
var deltaPool sync.Pool

// Hardware codec model (paper §6.3, §7.3): Google's VP9 hardware fetches
// reference windows in batches, keeps deblocking working sets in SRAM, and
// optionally compresses reference/reconstructed frames losslessly. Its
// off-chip traffic therefore decomposes into the categories of Figures 12
// and 16, which this model reproduces from parameters measured on a real
// encode of a synthetic clip.

// TrafficItem is one category of per-frame off-chip traffic.
type TrafficItem struct {
	Name  string
	Bytes float64
}

// HWParams holds the measured per-pixel constants that drive the model.
type HWParams struct {
	// RefPxPerPx is reference-frame pixels fetched per current-frame luma
	// pixel during motion compensation (the paper reports 2.9).
	RefPxPerPx float64
	// MEWindowPxPerPx is reference pixels fetched per pixel by hardware
	// motion estimation after SRAM window reuse.
	MEWindowPxPerPx float64
	// BitsPerPixel is the compressed bitstream density.
	BitsPerPixel float64
	// CompressionRatio is the measured lossless frame compression ratio
	// (compressed/original, lower is better).
	CompressionRatio float64
}

// MeasureHWParams derives model parameters from a real coded clip. The
// hardware ME reuses its search window across adjacent macro-blocks in
// SRAM; reuse leaves roughly one window-row of new pixels per macro-block
// column step per reference, which the windowReuse factor models.
//
// The result is computed once per clip (it LZO-compresses every recon
// frame) and kept on the clip, so the clip must not change after the first
// call; CodeClip sets every field before it returns the clip. Safe for
// concurrent use.
func MeasureHWParams(clip *CodedClip) HWParams {
	clip.hwOnce.Do(func() { clip.hw = measureHWParams(clip) })
	return clip.hw
}

func measureHWParams(clip *CodedClip) HWParams {
	st := clip.EncStats
	var p HWParams
	if st.MC.PixelsProduced > 0 {
		p.RefPxPerPx = float64(st.MC.RefPixelsRead) / float64(st.MC.PixelsProduced)
	}
	pixels := float64(clip.Cfg.Width*clip.Cfg.Height) * float64(len(clip.Frames))
	p.BitsPerPixel = float64(st.BitstreamBytes) * 8 / pixels
	// Hardware ME holds the whole search window in SRAM and reuses it
	// across candidates; stepping one macro-block rightward fetches only
	// the new window column: MBSize x (MBSize + 2*SearchRange) fresh
	// pixels per block (further references mostly hit the same window).
	r := clip.Cfg.SearchRange
	p.MEWindowPxPerPx = float64(MBSize+2*r) / MBSize
	var raw, comp int
	for _, f := range clip.Recons {
		raw += len(f.Y) + len(f.U) + len(f.V)
		comp += CompressFrameSize(f)
	}
	if raw > 0 {
		p.CompressionRatio = float64(comp) / float64(raw)
	}
	return p
}

// CompressFrame losslessly compresses a frame — per-plane left-neighbor
// delta filtering followed by LZO — a real implementation of the "lossless
// frame compression" the hardware codec applies to reference frame
// traffic. DecompressFrame inverts it exactly.
func CompressFrame(f *video.Frame) []byte {
	out := []byte{
		byte(f.W), byte(f.W >> 8),
		byte(f.H), byte(f.H >> 8),
	}
	for _, plane := range [][]uint8{f.Y, f.U, f.V} {
		// The Get/Put pair stays inside this loop body so the pooled
		// buffer provably never outlives one plane's compression.
		dp, _ := deltaPool.Get().(*[]uint8)
		if dp == nil || cap(*dp) < len(plane) {
			s := make([]uint8, len(plane))
			dp = &s
		}
		delta := (*dp)[:len(plane)]
		prev := uint8(0)
		for i, v := range plane {
			delta[i] = v - prev
			prev = v
		}
		c := lzo.Compress(delta)
		*dp = delta
		deltaPool.Put(dp)
		out = append(out, byte(len(c)), byte(len(c)>>8), byte(len(c)>>16), byte(len(c)>>24))
		out = append(out, c...)
	}
	return out
}

// DecompressFrame inverts CompressFrame.
func DecompressFrame(data []byte) (*video.Frame, error) {
	if len(data) < 4 {
		return nil, errBadBitstream
	}
	w := int(data[0]) | int(data[1])<<8
	h := int(data[2]) | int(data[3])<<8
	if w <= 0 || h <= 0 || w%2 != 0 || h%2 != 0 {
		return nil, errBadBitstream
	}
	f := video.NewFrame(w, h)
	pos := 4
	for _, plane := range [][]uint8{f.Y, f.U, f.V} {
		if pos+4 > len(data) {
			return nil, errBadBitstream
		}
		n := int(data[pos]) | int(data[pos+1])<<8 | int(data[pos+2])<<16 | int(data[pos+3])<<24
		pos += 4
		if n < 0 || pos+n > len(data) {
			return nil, errBadBitstream
		}
		delta, err := lzo.Decompress(data[pos:pos+n], len(plane))
		if err != nil {
			return nil, err
		}
		if len(delta) != len(plane) {
			return nil, errBadBitstream
		}
		prev := uint8(0)
		for i, d := range delta {
			prev += d
			plane[i] = prev
		}
		pos += n
	}
	return f, nil
}

// CompressFrameSize returns the compressed size of f in bytes (the
// quantity the hardware traffic model needs).
func CompressFrameSize(f *video.Frame) int {
	// Skip the 16 bytes of container framing: the hardware compresses
	// blocks in place and keeps sizes in its own metadata stream, which
	// the traffic model accounts separately as "Compression Info".
	return len(CompressFrame(f)) - 16
}

// Figure 12/16 category names.
const (
	CatReferenceFrame  = "Reference Frame"
	CatCompressionInfo = "Compression Info"
	CatDecoderData     = "Decoder Data"
	CatReconMetadata   = "Reconst. Frame Metadata"
	CatDeblockFilter   = "Deblocking Filter"
	CatReconFrame      = "Reconstructed Frame"
	CatCurrentFrame    = "Current Frame"
	CatEncodedStream   = "Encoded Bitstream"
	CatOtherTraffic    = "Other"
)

// refResolutionScale models how per-pixel reference traffic varies with
// resolution: lower resolutions use smaller prediction blocks (larger
// relative filter aprons) and get less SRAM window reuse, so they fetch
// more reference pixels per pixel. The exponent is fitted to the paper's
// observation that one 4K frame moves ~4.6x the data of one HD frame
// despite having 9x the pixels (Figure 12), i.e. HD reference traffic per
// pixel is ~2.4x the 4K value.
func refResolutionScale(w, h int) float64 {
	base := float64(video.K4Width * video.K4Height)
	scale := math.Pow(base/float64(w*h), 0.4)
	if scale < 1 {
		return 1
	}
	if scale > 3 {
		return 3
	}
	return scale
}

// HWDecodeTraffic returns the modelled per-frame off-chip traffic of the
// hardware decoder at w x h, with or without lossless frame compression
// (Figure 12).
func HWDecodeTraffic(w, h int, compressed bool, p HWParams) []TrafficItem {
	luma := float64(w * h)
	yuv := luma * 1.5
	ratio := 1.0
	compInfo := 0.0
	if compressed {
		ratio = p.CompressionRatio
		compInfo = yuv * 0.02 // per-block compression metadata
	}
	mbs := luma / (MBSize * MBSize)
	ref := p.RefPxPerPx * 1.25 * luma * refResolutionScale(w, h) // luma + chroma MC
	return []TrafficItem{
		{CatReferenceFrame, ref * ratio},
		{CatCompressionInfo, compInfo},
		{CatDecoderData, p.BitsPerPixel * luma / 8},
		{CatReconMetadata, mbs * 24}, // MVs, modes, filter strengths
		{CatDeblockFilter, yuv * 0.10},
		{CatReconFrame, yuv * ratio},
	}
}

// HWEncodeTraffic returns the modelled per-frame off-chip traffic of the
// hardware encoder (Figure 16).
func HWEncodeTraffic(w, h int, compressed bool, p HWParams) []TrafficItem {
	luma := float64(w * h)
	yuv := luma * 1.5
	ratio := 1.0
	compInfo := 0.0
	if compressed {
		ratio = p.CompressionRatio
		compInfo = yuv * 0.02
	}
	return []TrafficItem{
		// The raw current frame is read for ME/mode decision; its encoded
		// form cannot be frame-compressed.
		{CatCurrentFrame, yuv},
		{CatReferenceFrame, p.MEWindowPxPerPx * luma * refResolutionScale(w, h) * ratio},
		{CatDeblockFilter, yuv * 0.08},
		{CatCompressionInfo, compInfo},
		{CatReconFrame, yuv * ratio},
		{CatEncodedStream, p.BitsPerPixel * luma / 8},
		{CatOtherTraffic, yuv * 0.05},
	}
}

// TotalTraffic sums a category list.
func TotalTraffic(items []TrafficItem) float64 {
	var t float64
	for _, it := range items {
		t += it.Bytes
	}
	return t
}

// HWEnergyMode selects the Figure 21 configuration.
type HWEnergyMode int

// Figure 21 configurations.
const (
	HWBaseline HWEnergyMode = iota // VP9 hardware only
	HWPIMCore                      // MC (+ME) and deblocking on PIM cores
	HWPIMAcc                       // MC (+ME) and deblocking as PIM accelerators
)

// inMemoryCategory reports whether a traffic category is eliminated from
// the off-chip channel when MC/ME and the deblocking filter move into
// memory (Figures 13 and 17): reference fetches and reconstructed-frame
// round trips stay inside the stack.
func inMemoryCategory(name string) bool {
	switch name {
	case CatReferenceFrame, CatReconFrame, CatDeblockFilter, CatCompressionInfo:
		return true
	}
	return false
}

// HWEnergy models the per-frame energy (pJ) of a hardware codec
// configuration given its traffic breakdown. opsPerPixel is the datapath
// work of the offloaded units (MC/ME + deblock); the remaining pipeline
// stays in the on-chip hardware in all configurations and is excluded, as
// in Figure 21 which compares data movement plus offloaded-unit
// computation.
func HWEnergy(items []TrafficItem, w, h int, mode HWEnergyMode, params energy.Params, opsPerPixel float64) energy.Breakdown {
	luma := float64(w * h)
	offloadOps := luma * opsPerPixel

	var b energy.Breakdown
	for _, it := range items {
		if mode != HWBaseline && inMemoryCategory(it.Name) {
			// Served inside the stack.
			b.DRAM += it.Bytes * params.StackDRAMByte
			b.Interconnect += it.Bytes * params.StackLinkByte
			continue
		}
		b.DRAM += it.Bytes * params.DRAMByte
		b.MemCtrl += it.Bytes * params.MemCtrlByte
		b.Interconnect += it.Bytes * params.InterconnectByte
	}
	switch mode {
	case HWBaseline:
		// Fixed-function on-chip hardware: accelerator-class efficiency.
		b.PIM += offloadOps * params.PIMAccOp
	case HWPIMCore:
		// A general-purpose PIM core runs the offloaded units an order of
		// magnitude less efficiently than dedicated hardware.
		b.PIM += offloadOps * params.PIMCoreInstr
	case HWPIMAcc:
		// The same RTL moved into the logic layer.
		b.PIM += offloadOps * params.PIMAccOp
	}
	return b
}
