package trace

import (
	"testing"

	"gopim/internal/kernels/texture"
	"gopim/internal/profile"
	"gopim/internal/vp9"
)

// BenchmarkTraceReplay measures replaying a recorded texture-tiling trace
// into a fresh PIM-core hierarchy, against BenchmarkDirectRun as the
// re-execution baseline the cache avoids.
func BenchmarkTraceReplay(b *testing.B) {
	k := texture.Kernel(512, 512, 1)
	rec := NewRecorder(k.Name())
	profile.Record(profile.SoC(), k, rec)
	tr := rec.Finish()
	b.ReportMetric(float64(tr.Words()*8), "trace-bytes")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Replay(profile.PIMCore())
	}
}

// BenchmarkTraceReplayME replays the test clip's motion-estimation trace
// into a fresh PIM-core hierarchy. Motion search re-reads groups of runs
// back to back, so unlike texture tiling its compiled stream is mostly
// loops.
func BenchmarkTraceReplayME(b *testing.B) {
	k := vp9.MEKernel(testClip)
	rec := NewRecorder(k.Name())
	profile.Record(profile.SoC(), k, rec)
	tr := rec.Finish()
	b.ReportMetric(float64(tr.CompiledWords(64)*8), "stream-bytes")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Replay(profile.PIMCore())
	}
}

// BenchmarkTraceReplayInterp replays the same trace through the reference
// interpreter, isolating what the compiled line-stream form saves.
func BenchmarkTraceReplayInterp(b *testing.B) {
	k := texture.Kernel(512, 512, 1)
	rec := NewRecorder(k.Name())
	profile.Record(profile.SoC(), k, rec)
	tr := rec.Finish()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.ReplayInterp(profile.PIMCore())
	}
}

// BenchmarkDirectRun is the corresponding direct execution of the same
// kernel on the same hardware.
func BenchmarkDirectRun(b *testing.B) {
	k := texture.Kernel(512, 512, 1)
	for i := 0; i < b.N; i++ {
		profile.Run(profile.PIMCore(), k)
	}
}
