package experiments

import (
	"bytes"
	"testing"

	"gopim"
	"gopim/internal/trace"
)

// TestRunAllTraceCacheMatchesDirect is the end-to-end memoization gate: the
// full experiment sweep with a shared kernel trace cache must render
// byte-identical reports to the direct-execution path, and the cache must
// actually be exercised (records and replays both non-zero).
func TestRunAllTraceCacheMatchesDirect(t *testing.T) {
	if testing.Short() {
		t.Skip("two full experiment sweeps; skipped with -short")
	}
	c := trace.NewCache()
	cached := RunAllSerial(Options{Scale: gopim.Quick, Traces: c})
	direct := RunAllSerial(Options{Scale: gopim.Quick})

	if len(cached) != len(direct) {
		t.Fatalf("result counts differ: %d cached / %d direct", len(cached), len(direct))
	}
	rc, rd := renderResults(t, cached), renderResults(t, direct)
	for name, text := range rc {
		if !bytes.Equal(text, rd[name]) {
			t.Errorf("%s: rendered output differs with the trace cache on:\ncached:\n%s\ndirect:\n%s",
				name, text, rd[name])
		}
	}

	s := c.Stats()
	if s.Records == 0 || s.Replays == 0 {
		t.Errorf("trace cache unused during run all: stats %+v", s)
	}
	// The sweep evaluates each keyed kernel on multiple hardware configs
	// across many experiments; memoization must collapse those to hits.
	if s.Hits <= s.Records {
		t.Errorf("expected more hits than recordings, got %+v", s)
	}
}
