// Package gopim is a Go reproduction of "Google Workloads for Consumer
// Devices: Mitigating Data Movement Bottlenecks" (Boroumand et al.,
// ASPLOS 2018). It models a Chromebook-class SoC with LPDDR3/3D-stacked
// memory, profiles instrumented implementations of the paper's four
// consumer workloads (Chrome, TensorFlow Mobile, VP9 playback and capture),
// and evaluates offloading the paper's PIM target functions to in-memory
// logic — a general-purpose PIM core or fixed-function PIM accelerators.
//
// The package is a facade over the internal machinery:
//
//   - Targets() lists every PIM target the paper evaluates, each backed by
//     a real instrumented kernel.
//   - Evaluate() runs one target under CPU-only, PIM-core and
//     PIM-accelerator execution and reports energy and runtime.
//   - The experiments subpackage regenerates every table and figure of the
//     paper's evaluation.
package gopim

import (
	"sync"

	"gopim/internal/browser"
	"gopim/internal/core"
	"gopim/internal/dram"
	"gopim/internal/energy"
	"gopim/internal/kernels/blit"
	"gopim/internal/kernels/texture"
	"gopim/internal/profile"
	"gopim/internal/qgemm"
	"gopim/internal/vp9"
)

// Mode selects where a PIM target executes.
type Mode = core.Mode

// Execution modes (paper §10).
const (
	CPUOnly = core.CPUOnly
	PIMCore = core.PIMCore
	PIMAcc  = core.PIMAcc
)

// Modes lists all execution modes in presentation order.
var Modes = core.Modes

// Target is one PIM target function with its accelerator properties.
type Target = core.Target

// Result groups a target's evaluations across execution modes.
type Result = core.Result

// Evaluation is one (target, mode) outcome.
type Evaluation = core.Evaluation

// Breakdown is a per-hardware-component energy total.
type Breakdown = energy.Breakdown

// EnergyParams is the per-event energy cost table (§3.1 methodology).
type EnergyParams = energy.Params

// DefaultEnergyParams returns the calibrated parameter set used by the
// experiments.
func DefaultEnergyParams() EnergyParams { return energy.Default() }

// Evaluator models energy and runtime from kernel profiles.
type Evaluator = core.Evaluator

// Candidate is a workload function assessed against the paper's PIM target
// criteria (§3.2).
type Candidate = core.Candidate

// Criteria parameterizes PIM candidate selection.
type Criteria = core.Criteria

// DefaultCriteria mirrors the paper's selection thresholds.
func DefaultCriteria() Criteria { return core.DefaultCriteria() }

// NewEvaluator returns an evaluator with default parameters.
func NewEvaluator() *Evaluator { return core.NewEvaluator() }

// Evaluate runs target on the modelled SoC and PIM hardware with default
// parameters, returning per-mode energy and runtime.
func Evaluate(t Target) Result {
	return NewEvaluator().Evaluate(t)
}

// AreaFeasible reports whether PIM logic of the given area (mm²) fits the
// per-vault logic-layer budget of the modelled 3D-stacked memory, and the
// fraction of the budget it uses.
func AreaFeasible(areaMM2 float64) (fraction float64, ok bool) {
	return core.AreaFeasible(areaMM2)
}

// VaultAreaBudget is the logic-layer area available per vault, mm² (§3.3).
const VaultAreaBudget = dram.VaultAreaBudget

// PIMCoreArea is the area of one PIM core, mm² (§3.3).
const PIMCoreArea = core.PIMCoreArea

// Scale selects how large the default experiment inputs are. The paper's
// native inputs (4K video, full-resolution networks) are hours of pure-Go
// simulation; Quick and Standard shrink them while preserving the
// cache-relative behaviour that drives every reported shape.
type Scale int

// Experiment scales.
const (
	// Quick targets unit-test latency (seconds).
	Quick Scale = iota
	// Standard targets bench latency (a few minutes) with working sets
	// that exceed the LLC the way the paper's inputs do.
	Standard
)

// EvalClip returns the shared synthetic evaluation clip for the given
// scale, real-encoded once per process and cached, since every video
// target and experiment reads it (DESIGN.md §15 gives the encode's cost).
// Even Quick working sets exceed the 2 MiB LLC, as the paper's inputs do.
func EvalClip(s Scale) *vp9.CodedClip {
	clipOnce.Lock()
	defer clipOnce.Unlock()
	if c, ok := clipCache[s]; ok {
		return c
	}
	w, h, frames := 1280, 704, 3
	if s == Standard {
		w, h, frames = 1920, 1088, 4
	}
	clip, err := vp9.CodeClip(w, h, frames, 28, 77)
	if err != nil {
		panic("gopim: building evaluation clip: " + err.Error())
	}
	clipCache[s] = clip
	return clip
}

var (
	clipOnce  sync.Mutex
	clipCache = map[Scale]*vp9.CodedClip{}
)

// Targets returns the paper's PIM targets (§§4–7), instrumented and
// parameterized for the given scale, with the per-target accelerator areas
// the paper reports. All working sets exceed the LLC, as the paper's
// native inputs do.
func Targets(s Scale) []Target {
	big := s == Standard
	pick := func(q, std int) int {
		if big {
			return std
		}
		return q
	}
	texSize := pick(1024, 1536)
	blitOps := pick(24, 48)
	pages := pick(1024, 4096)
	gemmDim := pick(768, 1024)

	clip := EvalClip(s)

	return []Target{
		{
			Name: "Texture Tiling", Workload: "Chrome",
			Kernel: texture.Kernel(texSize, texSize, 2), Phases: []string{"texture tiling"},
			AccArea: 0.25, AccUnits: 4,
		},
		{
			Name: "Color Blitting", Workload: "Chrome",
			Kernel: blit.Kernel(texSize, blitOps, 1), Phases: []string{"color blitting"},
			AccArea: 0.25, AccUnits: 4,
		},
		{
			Name: "Compression", Workload: "Chrome",
			Kernel: browser.CompressKernel(pages, 9), Phases: []string{"compression"},
			AccArea: 0.25, AccUnits: 4,
		},
		{
			Name: "Decompression", Workload: "Chrome",
			Kernel: browser.DecompressKernel(pages, 9), Phases: []string{"decompression"},
			AccArea: 0.25, AccUnits: 4,
		},
		{
			Name: "Packing", Workload: "TensorFlow",
			Kernel: qgemm.PackKernel(gemmDim, gemmDim, gemmDim, 2), Phases: []string{"packing"},
			AccArea: 0.25, AccUnits: 4,
		},
		{
			Name: "Quantization", Workload: "TensorFlow",
			Kernel: qgemm.QuantizeKernel(gemmDim, gemmDim, gemmDim, 2), Phases: []string{"quantization"},
			AccArea: 0.25, AccUnits: 4,
		},
		{
			Name: "Sub-Pixel Interpolation", Workload: "Video Playback",
			Kernel: vp9.SubPelKernel(clip), Phases: []string{"sub-pixel interpolation"},
			AccArea: 0.21, AccUnits: 4,
		},
		{
			Name: "Deblocking Filter", Workload: "Video Playback",
			Kernel: vp9.DeblockKernel(clip), Phases: []string{"deblocking filter"},
			AccArea: 0.12, AccUnits: 4,
		},
		{
			Name: "Motion Estimation", Workload: "Video Capture",
			Kernel: vp9.MEKernel(clip), Phases: []string{"motion estimation"},
			AccArea: 1.24, AccUnits: 2,
		},
	}
}

// Hardware aliases for callers that want to profile their own kernels.
type (
	// Kernel is an instrumented unit of work.
	Kernel = profile.Kernel
	// KernelFunc adapts a function to Kernel.
	KernelFunc = profile.KernelFunc
	// Ctx is the instrumentation context passed to kernels.
	Ctx = profile.Ctx
	// Profile holds the counters collected for a kernel.
	Profile = profile.Profile
	// Hardware describes a memory system to profile against.
	Hardware = profile.Hardware
)

// SoC returns the baseline SoC hardware description (paper Table 1).
func SoC() Hardware { return profile.SoC() }

// PIMCoreHW returns the PIM core hardware description.
func PIMCoreHW() Hardware { return profile.PIMCore() }

// PIMAccHW returns the PIM accelerator hardware description.
func PIMAccHW() Hardware { return profile.PIMAcc() }

// RunKernel profiles a kernel on the given hardware.
func RunKernel(hw Hardware, k Kernel) (Profile, map[string]Profile) {
	return profile.Run(hw, k)
}
