package main

import (
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// TestSmoke runs every workload for two rounds of ops with every check on,
// and one traced run (serve-explore, whose traced run also exercises the
// batch-against-direct check, the layer walk, pimsim start-up and a
// regeneration). Each workload pays its full set-up, so this takes a few
// minutes.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take minutes")
	}
	dir := t.TempDir()
	pimsim := filepath.Join(dir, "pimsim")
	if out, err := exec.Command("go", "build", "-o", pimsim, "gopim/cmd/pimsim").CombinedOutput(); err != nil {
		t.Fatalf("building pimsim: %v\n%s", err, out)
	}
	runs := []struct {
		workload string
		traced   bool
	}{
		{"paper-regen", false},
		{"serve-explore", false},
		{"serve-explore", true},
	}
	for _, r := range runs {
		b := &bench{
			seed:   7,
			window: time.Second,
			traced: r.traced,
			smoke:  true,
			pimsim: pimsim,
			work:   filepath.Join(dir, r.workload),
		}
		res, err := runWorkload(workloads[r.workload], b)
		if err != nil {
			t.Fatalf("%s (traced %v): %v", r.workload, r.traced, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
			t.Errorf("%s (traced %v): correct=%v attempted=%d failed=%d problems=%v",
				r.workload, r.traced, res.Correct, res.Attempted, res.Failed, b.problems)
		}
		want := len(endToEnd(&outcome{}))
		if r.traced {
			want = len(perLayerMetrics())
		}
		if len(res.Metrics) != want {
			t.Errorf("%s (traced %v): %d metrics, want %d", r.workload, r.traced, len(res.Metrics), want)
		}
	}
}
