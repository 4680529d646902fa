package trace

import (
	"os"
	"reflect"
	"testing"

	"gopim/internal/browser"
	"gopim/internal/cache"
	"gopim/internal/kernels/texture"
	"gopim/internal/profile"
)

// sweepL2Family returns the K=8 same-line-size config family the tentpole's
// headline number is measured on: one L1 geometry (the SoC's 64 kB 4-way)
// fanned over eight LLC geometries — the shape a cache-geometry sweep
// produces, and the one batched replay accelerates most (a single shared
// L1 group).
func sweepL2Family() []profile.Hardware {
	var hws []profile.Hardware
	for _, ways := range []int{8, 16} {
		for _, size := range []int{1 << 20, 2 << 20, 4 << 20, 8 << 20} {
			l2 := cache.Config{Name: "LLC", Size: size, Ways: ways}
			hws = append(hws, profile.Hardware{
				Name: "sweep",
				L1:   cache.Config{Name: "L1D", Size: 64 << 10, Ways: 4},
				L2:   &l2,
			})
		}
	}
	return hws
}

// mixedConfigSet exercises the general case: several L1 groups, members
// with and without an L2, and differing reference widths.
func mixedConfigSet() []profile.Hardware {
	soc := profile.SoC()
	pim := profile.PIMCore()
	acc := profile.PIMAcc()
	wide := profile.PIMCore()
	wide.VectorRef = 32
	l2 := cache.Config{Name: "LLC", Size: 1 << 20, Ways: 8}
	return []profile.Hardware{
		soc, pim, acc, wide,
		{Name: "small", L1: cache.Config{Name: "L1", Size: 16 << 10, Ways: 4}, L2: &l2},
		soc, // duplicate config: must price identically to its twin
	}
}

func recordedTexture(b testing.TB, w, h int) *Trace {
	k := texture.Kernel(w, h, 1)
	rec := NewRecorder(k.Name())
	profile.Record(profile.SoC(), k, rec)
	return rec.Finish()
}

// TestReplayBatchMatchesReplay is the trace-layer equivalence gate:
// ReplayBatch must return, per config, exactly what the reference
// interpreter returns — profile and per-phase map. (Trace.Replay is itself
// a batch of one, so the interpreter is the independent reference.)
func TestReplayBatchMatchesReplay(t *testing.T) {
	tr := recordedTexture(t, 256, 256)
	for name, hws := range map[string][]profile.Hardware{
		"l2family": sweepL2Family(),
		"mixed":    mixedConfigSet(),
	} {
		got := tr.ReplayBatch(hws)
		if len(got) != len(hws) {
			t.Fatalf("%s: %d results for %d configs", name, len(got), len(hws))
		}
		for i, hw := range hws {
			wantProf, wantPhases := tr.ReplayInterp(hw)
			if got[i].Profile != wantProf {
				t.Errorf("%s config %d (%s): batch profile diverged:\nbatch  %+v\ninterp %+v",
					name, i, HardwareKey(hw), got[i].Profile, wantProf)
			}
			if !reflect.DeepEqual(got[i].Phases, wantPhases) {
				t.Errorf("%s config %d (%s): batch phase map diverged", name, i, HardwareKey(hw))
			}
		}
	}
}

// TestReplayBatchWideLines covers the 128 B-line path end to end: configs
// compiled and replayed at a non-default line size must match the
// reference interpreter.
func TestReplayBatchWideLines(t *testing.T) {
	tr := recordedTexture(t, 256, 256)
	l2 := cache.Config{Name: "LLC", Size: 2 << 20, Ways: 8, LineSize: 128}
	hws := []profile.Hardware{
		{Name: "wide", L1: cache.Config{Name: "L1D", Size: 64 << 10, Ways: 4, LineSize: 128}, L2: &l2},
		{Name: "wide-pim", L1: cache.Config{Name: "PIM-L1", Size: 32 << 10, Ways: 4, LineSize: 128}},
	}
	got := tr.ReplayBatch(hws)
	for i, hw := range hws {
		wantProf, wantPhases := tr.ReplayInterp(hw)
		if got[i].Profile != wantProf || !reflect.DeepEqual(got[i].Phases, wantPhases) {
			t.Errorf("config %d (%s): 128 B batch replay diverged from the interpreter", i, HardwareKey(hw))
		}
	}
	// 128 B lines halve the event count of sequential walks but move 128
	// bytes per event: traffic must be accounted at the hierarchy's line
	// size, not the global 64 B default.
	if got[0].Profile.Mem.Total() == 0 {
		t.Fatalf("wide-line config saw no memory traffic")
	}
}

// TestReplayBatchPanicsOnMixedLineSizes pins the grouping contract.
func TestReplayBatchPanicsOnMixedLineSizes(t *testing.T) {
	tr := recordedTexture(t, 64, 64)
	defer func() {
		if recover() == nil {
			t.Fatalf("no panic for mixed line sizes in one batch")
		}
	}()
	tr.ReplayBatch([]profile.Hardware{
		{Name: "a", L1: cache.Config{Name: "L1", Size: 64 << 10, Ways: 4}},
		{Name: "b", L1: cache.Config{Name: "L1", Size: 64 << 10, Ways: 4, LineSize: 128}},
	})
}

// TestTraceForRecordsOnce checks TraceFor's memoization: one kernel
// execution across any number of calls, shared with Profile's slot.
func TestTraceForRecordsOnce(t *testing.T) {
	c := NewCache()
	k := texture.Kernel(64, 64, 1)
	tr1 := c.TraceFor(k)
	tr2 := c.TraceFor(k)
	if tr1 != tr2 {
		t.Fatalf("TraceFor returned distinct traces for one keyed kernel")
	}
	if got := c.Stats().Records; got != 1 {
		t.Fatalf("records = %d, want 1", got)
	}
	// Profile must reuse the recording TraceFor made, not re-record.
	c.Profile(profile.PIMCore(), k)
	if got := c.Stats().Records; got != 1 {
		t.Fatalf("records after Profile = %d, want 1", got)
	}
	// Unkeyed kernels have no identity to memoize on: fresh trace per call.
	unkeyed := profile.KernelFunc{KernelName: "anon", Fn: func(ctx *profile.Ctx) {
		b := ctx.Alloc("b", 4096)
		ctx.Load(b, 0, 4096)
	}}
	u1, u2 := c.TraceFor(unkeyed), c.TraceFor(unkeyed)
	if u1 == u2 {
		t.Fatalf("TraceFor memoized an unkeyed kernel")
	}
}

// batchSerialOps returns the two operations the ≥2x acceptance criterion
// compares: one batched walk of the K=8 sweep family vs K independent
// Replay calls (batches of one) over the same compiled trace.
//
// The trace is Chrome tab compression: an L1-resident kernel (~88% L1 hit
// rate), so the serial path spends most of each pass re-walking the same L1
// — the work one shared lead-L1 walk amortizes across the family. Streaming
// kernels with ~100% L1 miss rates (texture tiling at this scale) are
// bounded by per-config L2/DRAM modelling instead, which no walk sharing
// can remove; their batch win is the decode/bookkeeping hoist only.
func batchSerialOps(tb testing.TB) (batch, serial func()) {
	k := browser.CompressKernel(128, 9)
	rec := NewRecorder(k.Name())
	profile.Record(profile.SoC(), k, rec)
	tr := rec.Finish()
	hws := sweepL2Family()
	tr.Compiled(64) // lower once up front; both paths share the compilation
	batch = func() { tr.ReplayBatch(hws) }
	serial = func() {
		for _, hw := range hws {
			tr.Replay(hw)
		}
	}
	return batch, serial
}

// BenchmarkTraceReplayBatch measures one batched walk pricing the K=8
// same-line-size sweep family — the headline configs-per-walk number.
// Compare against BenchmarkTraceReplaySerial8.
func BenchmarkTraceReplayBatch(b *testing.B) {
	batch, _ := batchSerialOps(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch()
	}
}

// BenchmarkTraceReplaySerial8 prices the same 8 configs as 8 independent
// Replay calls, each a batch of one — what a sweep pays without batching.
func BenchmarkTraceReplaySerial8(b *testing.B) {
	_, serial := batchSerialOps(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serial()
	}
}

// TestBatchReplaySpeedup is the perf acceptance gate: batched replay of the
// K=8 family must be at least 2x faster than 8 single replays. Timing gates
// are load-sensitive, so it only runs when GOPIM_PERF_GATE is set
// (scripts/check.sh sets it).
func TestBatchReplaySpeedup(t *testing.T) {
	if os.Getenv("GOPIM_PERF_GATE") == "" {
		t.Skip("set GOPIM_PERF_GATE=1 to run the batched-replay perf gate")
	}
	batch, serial := batchSerialOps(t)
	rb := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			batch()
		}
	})
	rs := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			serial()
		}
	})
	speedup := float64(rs.NsPerOp()) / float64(rb.NsPerOp())
	t.Logf("batch %d ns/op, serial %d ns/op: %.2fx", rb.NsPerOp(), rs.NsPerOp(), speedup)
	if speedup < 2 {
		t.Fatalf("batched replay speedup %.2fx < 2x (batch %d ns/op, serial-8 %d ns/op)",
			speedup, rb.NsPerOp(), rs.NsPerOp())
	}
}
