package gopim_test

import (
	"testing"

	"gopim"
	"gopim/internal/vp9"
)

func TestTargetsCoverAllWorkloads(t *testing.T) {
	targets := gopim.Targets(gopim.Quick)
	if len(targets) != 9 {
		t.Fatalf("got %d targets, want 9 (paper §§4-7)", len(targets))
	}
	workloads := map[string]int{}
	names := map[string]bool{}
	for _, tgt := range targets {
		workloads[tgt.Workload]++
		if names[tgt.Name] {
			t.Errorf("duplicate target %q", tgt.Name)
		}
		names[tgt.Name] = true
		if tgt.Kernel == nil {
			t.Errorf("%s has no kernel", tgt.Name)
		}
		if tgt.AccArea <= 0 {
			t.Errorf("%s has no accelerator area", tgt.Name)
		}
		if frac, ok := gopim.AreaFeasible(tgt.AccArea); !ok || frac > 1 {
			t.Errorf("%s accelerator (%.2f mm²) not feasible", tgt.Name, tgt.AccArea)
		}
	}
	want := map[string]int{"Chrome": 4, "TensorFlow": 2, "Video Playback": 2, "Video Capture": 1}
	for wl, n := range want {
		if workloads[wl] != n {
			t.Errorf("%s has %d targets, want %d", wl, workloads[wl], n)
		}
	}
}

func TestEvalClipCached(t *testing.T) {
	a := gopim.EvalClip(gopim.Quick)
	b := gopim.EvalClip(gopim.Quick)
	if a != b {
		t.Error("EvalClip must cache the encoded clip per scale")
	}
	if len(a.Frames) == 0 || len(a.Streams) != len(a.Frames) {
		t.Error("clip incomplete")
	}
	// Pin the encode itself. Every other gate compares two modes of one
	// build, so an encoder change that alters decisions deterministically
	// passes them all; these figures catch it. The fingerprint hashes the
	// coded streams, and the motion-search counters drive the ME kernel's
	// trace.
	if got, want := a.Fingerprint(), "1280x704 q28 f3 h80aeea0e8ec32b4e"; got != want {
		t.Errorf("quick clip fingerprint %q, want %q", got, want)
	}
	wantME := vp9.MEStats{Blocks: 17600, SADs: 385114, RefPixelsRead: 279788410, SubPelProbes: 641108}
	if a.EncStats.ME != wantME {
		t.Errorf("quick clip motion-search stats %+v, want %+v", a.EncStats.ME, wantME)
	}
}

func TestRunKernelPublicAPI(t *testing.T) {
	k := gopim.KernelFunc{
		KernelName: "smoke",
		Fn: func(ctx *gopim.Ctx) {
			buf := ctx.Alloc("buf", 1<<20)
			ctx.SetPhase("stream")
			for off := 0; off < buf.Len(); off += 4096 {
				ctx.LoadV(buf, off, 4096)
			}
			ctx.Ops(1000)
		},
	}
	prof, phases := gopim.RunKernel(gopim.SoC(), k)
	if prof.Instructions() == 0 {
		t.Fatal("no instructions recorded through the public API")
	}
	if _, ok := phases["stream"]; !ok {
		t.Fatal("phase missing")
	}
	// The same kernel on PIM hardware sees no LLC.
	pimProf, _ := gopim.RunKernel(gopim.PIMCoreHW(), k)
	if pimProf.LLC.Accesses != 0 {
		t.Error("PIM hardware should have no LLC")
	}
}

func TestEvaluatePublicAPI(t *testing.T) {
	k := gopim.KernelFunc{
		KernelName: "streaming copy",
		Fn: func(ctx *gopim.Ctx) {
			src := ctx.Alloc("src", 8<<20)
			dst := ctx.Alloc("dst", 8<<20)
			for off := 0; off < src.Len(); off += 4096 {
				ctx.LoadV(src, off, 4096)
				ctx.StoreV(dst, off, 4096)
			}
		},
	}
	res := gopim.Evaluate(gopim.Target{Name: "copy", Workload: "demo", Kernel: k, AccArea: 0.1})
	if len(res.ByMode) != 3 {
		t.Fatalf("got %d modes", len(res.ByMode))
	}
	// A pure streaming copy is the ideal PIM case: both PIM modes must win
	// on energy and time.
	for _, mode := range []gopim.Mode{gopim.PIMCore, gopim.PIMAcc} {
		if res.EnergyReduction(mode) <= 0 {
			t.Errorf("%s: no energy win on a pure copy", mode)
		}
		if res.Speedup(mode) <= 1 {
			t.Errorf("%s: no speedup on a pure copy", mode)
		}
	}
}

func TestDefaultEnergyParams(t *testing.T) {
	p := gopim.DefaultEnergyParams()
	if p.CPUInstr <= 0 || p.DRAMByte <= 0 {
		t.Error("default parameters incomplete")
	}
}
