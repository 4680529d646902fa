package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"gopim/experiments"
	"gopim/internal/kernels/blit"
	"gopim/internal/kernels/texture"
	"gopim/internal/profile"
	"gopim/internal/trace"
)

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric lists in step
// with what the benchmark prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	want := perLayerMetrics()
	if len(doc.PerLayer) != len(want) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark reports %d", len(doc.PerLayer), len(want))
	}
	for i, m := range doc.PerLayer {
		if m.Name != want[i][0] || m.Unit != want[i][1] {
			t.Errorf("per_layer[%d] = %s (%s), benchmark reports %s (%s)", i, m.Name, m.Unit, want[i][0], want[i][1])
		}
	}
	e2e := endToEnd(&outcome{})
	if len(doc.EndToEnd) != len(e2e) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the benchmark reports %d", len(doc.EndToEnd), len(e2e))
	}
	for _, m := range doc.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end metric %s (%s) is not reported with that unit", m.Name, m.Unit)
		}
	}
}

func TestByteCheckRejectsFlippedByte(t *testing.T) {
	ref := []byte("==== table1 ====\nComponent  Configuration\n\n")
	var b bench
	b.checkBytes("identical", ref, append([]byte(nil), ref...))
	if len(b.problems) != 0 {
		t.Fatalf("identical output rejected: %v", b.problems)
	}
	damaged := append([]byte(nil), ref...)
	damaged[20] ^= 0x01
	b.checkBytes("flipped", ref, damaged)
	if len(b.problems) != 1 {
		t.Fatalf("flipped byte not rejected: %v", b.problems)
	}
	b.checkBytes("truncated", ref, ref[:len(ref)-1])
	if len(b.problems) != 2 {
		t.Fatalf("truncated output not rejected: %v", b.problems)
	}
}

// TestStoreChecksRejectTruncatedEntry truncates a store entry and checks
// that both of paper-regen's store-path checks catch the op that follows:
// the cache and store counters, and the on-disk snapshot.
func TestStoreChecksRejectTruncatedEntry(t *testing.T) {
	dir := t.TempDir()
	k := texture.Kernel(64, 64, 1)
	c, err := storeCache(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.Profile(profile.SoC(), k)
	c.Store.Wait()
	snap, err := snapshotStore(dir)
	if err != nil || len(snap) != 1 {
		t.Fatalf("store holds %d entries (%v), want 1", len(snap), err)
	}

	c, _ = storeCache(dir, nil)
	c.Profile(profile.SoC(), k)
	if why := servedByStore(c.Stats(), c.Store.Stats(), 1); why != "" {
		t.Fatalf("intact store rejected: %s", why)
	}
	if diff := snap.diff(mustSnapshot(t, dir)); diff != "" {
		t.Fatalf("intact store reported changed: %s", diff)
	}

	for name, e := range snap {
		if err := os.Truncate(filepath.Join(dir, name), e.size/2); err != nil {
			t.Fatal(err)
		}
	}
	c, _ = storeCache(dir, nil)
	c.Profile(profile.SoC(), k)
	c.Store.Wait()
	if why := servedByStore(c.Stats(), c.Store.Stats(), 1); why == "" {
		t.Error("truncated entry not rejected by the cache and store counters")
	}
	if diff := snap.diff(mustSnapshot(t, dir)); diff == "" {
		t.Error("truncated entry not rejected by the store snapshot")
	}
}

func mustSnapshot(t *testing.T, dir string) storeSnapshot {
	t.Helper()
	s, err := snapshotStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestParetoCheckRejectsFlippedFlag marks a small hand-checked table
// correctly, then flips each row's flag in turn.
func TestParetoCheckRejectsFlippedFlag(t *testing.T) {
	row := func(id int, e, s, a float64, pareto bool) experiments.ExploreRow {
		return experiments.ExploreRow{Workload: "w", Point: experiments.DesignPoint{ID: id},
			EnergyPJ: e, Seconds: s, AreaMM2: a, Pareto: pareto}
	}
	rows := []experiments.ExploreRow{
		row(0, 1, 4, 0, true),  // cheapest energy
		row(1, 4, 1, 0, true),  // fastest
		row(2, 4, 4, 0, false), // dominated by both
		row(3, 1, 4, 0, false), // ties row 0
		row(4, 2, 2, 1, true),  // trades area for balance
	}
	if v := paretoViolations(rows); len(v) != 0 {
		t.Fatalf("correct marking rejected: %v", v)
	}
	for i := range rows {
		damaged := append([]experiments.ExploreRow(nil), rows...)
		damaged[i].Pareto = !damaged[i].Pareto
		if v := paretoViolations(damaged); len(v) == 0 {
			t.Errorf("flipped flag on row %d not rejected", i)
		}
	}
}

// TestLawsRejectPerturbedCounter checks real profiles on the three paper
// configs, then perturbs one counter at a time.
func TestLawsRejectPerturbedCounter(t *testing.T) {
	k := blit.Kernel(128, 4, 1)
	for _, hw := range paperConfigs() {
		total, phases := profile.Run(hw, k)
		if v := lawViolations(hw, total, phases); len(v) != 0 {
			t.Fatalf("%s: real profile rejected: %v", hw.Name, v)
		}
		perturb := map[string]func(p *profile.Profile){
			"L1 hits":            func(p *profile.Profile) { p.L1.Hits++ },
			"L1 writebacks":      func(p *profile.Profile) { p.L1.Writebacks++; p.L1.Accesses++; p.L1.Misses++ },
			"DRAM bytes written": func(p *profile.Profile) { p.Mem.BytesWritten += 64 },
			"DRAM bytes read":    func(p *profile.Profile) { p.Mem.BytesRead += 1 << 30 },
		}
		if hw.L2 != nil {
			perturb["LLC misses"] = func(p *profile.Profile) { p.LLC.Misses++ }
		}
		for name, f := range perturb {
			bad := total
			f(&bad)
			if v := lawViolations(hw, bad, phases); len(v) == 0 {
				t.Errorf("%s: perturbed %s not rejected", hw.Name, name)
			}
		}
		for name, p := range phases {
			damaged := map[string]profile.Profile{}
			for n, q := range phases {
				damaged[n] = q
			}
			p.Ops++
			damaged[name] = p
			if v := lawViolations(hw, total, damaged); len(v) == 0 {
				t.Errorf("%s: perturbed phase %q not rejected by the phase sum", hw.Name, name)
			}
			break
		}
	}
}

// TestBatchCheckMatchesDirect pins the equality the traced run's
// batch-vs-direct check relies on, on a small kernel.
func TestBatchCheckMatchesDirect(t *testing.T) {
	k := texture.Kernel(64, 64, 1)
	tr := trace.NewCache().TraceFor(k)
	hws := llcVariants()
	got := tr.ReplayBatch(hws)
	for i, hw := range hws {
		want, wantPhases := profile.Run(hw, k)
		if !sameProfiles(got[i].Profile, got[i].Phases, want, wantPhases) {
			t.Errorf("variant %d: batch replay differs from direct execution", i)
		}
	}
	want, wantPhases := profile.Run(hws[0], k)
	want.L1.Hits++
	if sameProfiles(got[0].Profile, got[0].Phases, want, wantPhases) {
		t.Error("perturbed direct profile still compares equal")
	}
}
