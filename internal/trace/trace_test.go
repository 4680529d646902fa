package trace

import (
	"reflect"
	"slices"
	"testing"

	"gopim/internal/browser"
	"gopim/internal/cache"
	"gopim/internal/kernels/blit"
	"gopim/internal/kernels/texture"
	"gopim/internal/mem"
	"gopim/internal/nn"
	"gopim/internal/profile"
	"gopim/internal/qgemm"
	"gopim/internal/vp9"
)

// hardwareConfigs returns the three hardware configurations every kernel is
// evaluated on.
func hardwareConfigs() []profile.Hardware {
	return []profile.Hardware{profile.SoC(), profile.PIMCore(), profile.PIMAcc()}
}

// testClip builds a tiny coded clip once for the vp9 kernel families.
var testClip = func() *vp9.CodedClip {
	clip, err := vp9.CodeClip(128, 128, 2, 30, 7)
	if err != nil {
		panic(err)
	}
	return clip
}()

// familyKernels returns one representative kernel per registered kernel
// family: texture, blit, lzo (compress + decompress), qgemm, vp9, browser.
func familyKernels() map[string]profile.Kernel {
	return map[string]profile.Kernel{
		"texture":        texture.Kernel(256, 256, 2),
		"blit":           blit.Kernel(256, 8, 3),
		"lzo-compress":   browser.CompressKernel(16, 9),
		"lzo-decompress": browser.DecompressKernel(16, 9),
		"qgemm-pack":     qgemm.PackKernel(96, 96, 96, 2),
		"qgemm-quant":    qgemm.QuantizeKernel(96, 96, 96, 2),
		"nn-layer":       nn.LayerKernel(nn.ResNetV2152().Layers[0], 64),
		"vp9-subpel":     vp9.SubPelKernel(testClip),
		"vp9-deblock":    vp9.DeblockKernel(testClip),
		"vp9-me":         vp9.MEKernel(testClip),
		"vp9-decode":     vp9.DecodeKernel(testClip),
		"vp9-encode":     vp9.EncodeKernel(testClip),
		"browser-scroll": browser.ScrollKernel(browser.GoogleDocs(), 1),
		"browser-load":   browser.LoadKernel(browser.GoogleDocs()),
	}
}

// TestReplayEquivalence is the tentpole's correctness gate: for every kernel
// family, record once and replay on all three hardware configs and a
// 128 B-line SoC, and require the replay to match a direct profile.Run
// bit-for-bit — totals, per-phase maps, and the event-order-sensitive
// row-buffer stats. The trace is also passed through a store entry, whose
// 64 B form, events and replays must match the recorded trace's.
func TestReplayEquivalence(t *testing.T) {
	for name, k := range familyKernels() {
		t.Run(name, func(t *testing.T) {
			rec := NewRecorder(k.Name())
			recTotal, recPhases := profile.Record(profile.SoC(), k, rec)
			tr := rec.Finish()

			// The recording run itself must be unperturbed by the sink.
			directTotal, directPhases := profile.Run(profile.SoC(), k)
			if recTotal != directTotal {
				t.Fatalf("recording perturbed the profile:\nrecorded %+v\ndirect   %+v", recTotal, directTotal)
			}
			if !reflect.DeepEqual(recPhases, directPhases) {
				t.Fatalf("recording perturbed the phase map")
			}

			stored := storeRoundTrip(t, tr)
			hws := append(hardwareConfigs(), loopConfigs()[0])
			loops := name == "vp9-me" || name == "vp9-encode"
			if loops {
				hws = append(hws, loopConfigs()[1])
			}
			for _, hw := range hws {
				wantTotal, wantPhases := profile.Run(hw, k)
				engines := []struct {
					name   string
					replay func(profile.Hardware) (profile.Profile, map[string]profile.Profile)
				}{
					{"compiled", tr.Replay},
					{"interp", tr.ReplayInterp},
					{"stored", stored.Replay},
					{"stored-interp", stored.ReplayInterp},
				}
				for _, e := range engines {
					gotTotal, gotPhases := e.replay(hw)
					if gotTotal != wantTotal {
						t.Errorf("%s/%s: replay total diverges:\nreplay %+v\ndirect %+v", hw.Name, e.name, gotTotal, wantTotal)
					}
					if gotTotal.Rows != wantTotal.Rows {
						t.Errorf("%s/%s: row-buffer stats diverge: replay %+v direct %+v", hw.Name, e.name, gotTotal.Rows, wantTotal.Rows)
					}
					if !reflect.DeepEqual(gotPhases, wantPhases) {
						t.Errorf("%s/%s: replay phase map diverges:\nreplay %+v\ndirect %+v", hw.Name, e.name, gotPhases, wantPhases)
					}
				}
			}
			if !slices.Equal(stored.eventWords(), tr.events) {
				t.Errorf("stored events differ from the recorded ones")
			}
			if loops {
				// One batched walk over the 64 B configs: four L1 groups,
				// the tiny L1 falling back to walking where the others
				// count iterations in bulk.
				batch := append(hardwareConfigs(), loopConfigs()[1])
				for i, r := range tr.ReplayBatch(batch) {
					wantTotal, wantPhases := profile.Run(batch[i], k)
					if r.Profile != wantTotal || !reflect.DeepEqual(r.Phases, wantPhases) {
						t.Errorf("%s/batch: batched replay diverges from direct execution", batch[i].Name)
					}
				}
			}
		})
	}
}

// storeRoundTrip encodes tr into a store entry and decodes it, requiring
// the entry's 64 B form to equal a fresh lowering of tr word for word and
// a 64 B replay of it to leave the event section encoded.
func storeRoundTrip(t *testing.T, tr *Trace) *Trace {
	t.Helper()
	_, stored, err := decodeTrace(encodeTrace("round trip | "+tr.Kernel, tr))
	if err != nil {
		t.Fatalf("store round trip: %v", err)
	}
	if diff := compiledEqual(stored.compile(mem.LineSize), tr.compileOnce(mem.LineSize)); diff != "" {
		t.Errorf("stored 64 B form differs from a fresh lowering: %s", diff)
	}
	stored.Replay(profile.SoC())
	if stored.Words() > 0 && stored.evEnc == nil {
		t.Errorf("a 64 B replay of the stored trace decoded its events")
	}
	return stored
}

// loopConfigs are two extra configs: a SoC with 128 B lines, which every
// family replays on, and a SoC whose 1 KB 2-way L1 is too small for
// motion search's repeated groups, so the loop-heavy families' loops are
// walked iteration by iteration.
func loopConfigs() []profile.Hardware {
	wide := profile.SoC()
	wide.Name = "SoC-128B"
	wide.L1.LineSize = 128
	l2 := *wide.L2
	l2.LineSize = 128
	wide.L2 = &l2
	tiny := profile.SoC()
	tiny.Name = "SoC-1KB-L1"
	tiny.L1 = cache.Config{Name: "L1D", Size: 1 << 10, Ways: 2}
	return []profile.Hardware{wide, tiny}
}

// TestCacheSingleExecution verifies the memoization contract: one recording
// per kernel key, one replay per additional hardware config, hits after
// that, and results identical to direct runs throughout.
func TestCacheSingleExecution(t *testing.T) {
	c := NewCache()
	k := texture.Kernel(256, 256, 1)
	for round := 0; round < 2; round++ {
		for _, hw := range hardwareConfigs() {
			gotTotal, gotPhases := c.Profile(hw, k)
			wantTotal, wantPhases := profile.Run(hw, k)
			if gotTotal != wantTotal || !reflect.DeepEqual(gotPhases, wantPhases) {
				t.Fatalf("round %d %s: cached result diverges from direct run", round, hw.Name)
			}
		}
	}
	s := c.Stats()
	if s.Records != 1 {
		t.Errorf("Records = %d, want 1 (kernel must execute once)", s.Records)
	}
	if s.Replays != 2 {
		t.Errorf("Replays = %d, want 2 (one per additional hardware config)", s.Replays)
	}
	if s.Hits != 3 {
		t.Errorf("Hits = %d, want 3 (second round fully memoized)", s.Hits)
	}
}

// TestCacheConcurrentSingleFlight hammers one kernel from many goroutines:
// the kernel must still execute exactly once and every caller must see the
// same result.
func TestCacheConcurrentSingleFlight(t *testing.T) {
	c := NewCache()
	k := blit.Kernel(128, 4, 1)
	hws := hardwareConfigs()
	wantTotal, _ := profile.Run(hws[0], k)

	const goroutines = 16
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			total, _ := c.Profile(hws[g%len(hws)], k)
			if g%len(hws) == 0 && total != wantTotal {
				errs <- &mismatchError{}
				return
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < goroutines; g++ {
		if err := <-errs; err != nil {
			t.Fatal("concurrent caller saw a divergent profile")
		}
	}
	if s := c.Stats(); s.Records != 1 {
		t.Errorf("Records = %d, want 1 under concurrency", s.Records)
	}
}

type mismatchError struct{}

func (*mismatchError) Error() string { return "profile mismatch" }

// TestCacheBypassesUnkeyedKernels: kernels without a cache key run directly
// every time.
func TestCacheBypassesUnkeyedKernels(t *testing.T) {
	c := NewCache()
	runs := 0
	k := profile.KernelFunc{KernelName: "unkeyed", Fn: func(ctx *profile.Ctx) {
		runs++
		ctx.Ops(1)
	}}
	c.Profile(profile.SoC(), k)
	c.Profile(profile.SoC(), k)
	if runs != 2 {
		t.Errorf("unkeyed kernel ran %d times, want 2 (no memoization)", runs)
	}
	if s := c.Stats(); s.Misses != 2 || s.Records != 0 {
		t.Errorf("stats = %+v, want 2 misses and no records", s)
	}
}

// TestNilCacheFallsThrough: a nil *Cache is a valid "no caching" handle.
func TestNilCacheFallsThrough(t *testing.T) {
	var c *Cache
	k := texture.Kernel(64, 64, 1)
	gotTotal, _ := c.Profile(profile.SoC(), k)
	wantTotal, _ := profile.Run(profile.SoC(), k)
	if gotTotal != wantTotal {
		t.Error("nil cache diverges from direct run")
	}
}

// TestCachePhasesAreIsolated: callers mutating a returned phase map must not
// corrupt later requests.
func TestCachePhasesAreIsolated(t *testing.T) {
	c := NewCache()
	k := texture.Kernel(64, 64, 1)
	_, first := c.Profile(profile.SoC(), k)
	for name := range first {
		delete(first, name)
	}
	_, second := c.Profile(profile.SoC(), k)
	if len(second) == 0 {
		t.Error("mutating a returned phase map corrupted the cache")
	}
}

// TestHardwareKeyNormalizesDefaults: explicit default widths share an entry
// with zero-valued ones, and different geometries do not collide.
func TestHardwareKeyNormalizesDefaults(t *testing.T) {
	a := profile.PIMCore()
	b := profile.PIMCore()
	b.ScalarRef, b.VectorRef = 8, 16
	if HardwareKey(a) != HardwareKey(b) {
		t.Error("default-width hardware keys should match")
	}
	if HardwareKey(profile.SoC()) == HardwareKey(profile.PIMCore()) {
		t.Error("distinct hardware configs must not collide")
	}
}
