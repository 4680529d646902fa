package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"gopim"
	"gopim/experiments"
	"gopim/internal/cache"
	"gopim/internal/core"
	"gopim/internal/obs"
	"gopim/internal/profile"
	"gopim/internal/trace"
)

// families names the nine paper targets, in gopim.Targets order, as they
// appear in per-family metric names.
var families = []string{
	"texture", "blit", "lzo_compress", "lzo_decompress", "qgemm_pack",
	"qgemm_quantize", "vp9_subpel", "vp9_deblock", "vp9_me",
}

// perLayerMetrics lists every per-layer metric a traced run reports, with
// its unit. BENCHMARK.json's per_layer list must match it (checked by
// TestBenchmarkJSONMatches).
func perLayerMetrics() [][2]string {
	m := [][2]string{
		{"gopim.eval_clip_s", "s"},
		{"pimsim.start_s", "s"},
		{"trace.record_s", "s"}, {"trace.records", "count"}, {"trace.record_words", "count"},
	}
	for _, f := range families {
		m = append(m, [2]string{"trace.record." + f + "_s", "s"})
	}
	m = append(m, [][2]string{
		{"trace.store.load_s", "s"}, {"trace.store.loads", "count"}, {"trace.store.load_mb", "MB"},
		{"trace.store.misses", "count"}, {"trace.store.corrupt", "count"},
		{"trace.store.save_s", "s"}, {"trace.store.saves", "count"}, {"trace.store.save_errors", "count"},
		{"trace.compile_s", "s"}, {"trace.compiles", "count"}, {"trace.compiled_words", "count"},
		{"trace.replay_s", "s"}, {"trace.replays", "count"},
	}...)
	for _, f := range families {
		m = append(m, [2]string{"trace.replay." + f + "_s", "s"})
	}
	m = append(m, [][2]string{{"trace.batch_s", "s"}, {"trace.batch_walks", "count"}, {"trace.batch_slots", "count"}}...)
	for _, f := range families {
		m = append(m, [2]string{"trace.batch." + f + "_k8_s", "s"})
	}
	m = append(m, [][2]string{
		{"trace.cache.requests", "count"}, {"trace.cache.hits", "count"}, {"trace.cache.hit_ratio", "ratio"},
		{"trace.cache.store_hits", "count"}, {"trace.cache.evictions", "count"}, {"trace.cache.mem_mb", "MB"},
		{"core.price_s", "s"}, {"core.prices", "count"},
	}...)
	for _, name := range experiments.Names() {
		m = append(m, [2]string{"experiments." + name + "_s", "s"})
	}
	m = append(m, [][2]string{
		{"experiments.render_s", "s"},
		{"experiments.explore_render_s", "s"}, {"experiments.explore_geometries", "count"}, {"experiments.explore_configs", "count"},
		{"par.busy_s", "s"}, {"par.utilization", "ratio"},
		{"serve.queue_wait_s", "s"}, {"serve.run_s", "s"}, {"serve.http_s", "s"},
		{"serve.cells_requests", "count"}, {"serve.cells_computed", "count"}, {"serve.cells_coalesced", "count"},
		{"serve.cells_memo_hits", "count"}, {"serve.dedup_ratio", "ratio"}, {"serve.jobs_rejected", "count"},
		{"ledger.unattributed_s", "s"}, {"ledger.tracing_overhead_pct", "%"},
	}...)
	return m
}

// perLayer assembles a traced run's metrics. A layer the workload's own
// ops exercised reports what those ops measured (mean per traced op); any
// other layer reports the layer walk's measurement on the nine paper
// targets, so every metric is measured on every workload.
func perLayer(b *bench, o *outcome) (map[string]metric, error) {
	vals, err := b.layerWalk(o)
	if err != nil {
		return nil, err
	}
	for k, v := range o.layers {
		vals[k] = v
	}
	if o.opWallS <= 0 || len(o.lat) == 0 || len(o.tracedLat) == 0 {
		return nil, fmt.Errorf("traced run needs untraced and traced ops (got %d and %d)", len(o.lat), len(o.tracedLat))
	}
	share := o.attributedS / o.opWallS
	traced, untraced := median(o.tracedLat), median(o.lat)
	vals["ledger.unattributed_s"] = traced * (1 - share)
	vals["ledger.tracing_overhead_pct"] = 100 * (traced - untraced) / untraced
	logf("ledger: %.1f%% of traced op wall attributed to named layers (%d untraced, %d traced ops)",
		100*share, len(o.lat), len(o.tracedLat))

	out := map[string]metric{}
	var missing []string
	for _, nu := range perLayerMetrics() {
		v, ok := vals[nu[0]]
		if !ok {
			missing = append(missing, nu[0])
			continue
		}
		out[nu[0]] = metric{v, nu[1]}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("traced run measured no value for %s", strings.Join(missing, ", "))
	}
	return out, nil
}

// llcVariants returns eight SoC configurations that differ only in LLC
// size and associativity (all 64 B lines): one batched walk drives them
// all.
func llcVariants() []profile.Hardware {
	var hws []profile.Hardware
	for _, size := range []int{512 << 10, 1 << 20, 2 << 20, 4 << 20} {
		for _, ways := range []int{8, 16} {
			hw := profile.SoC()
			l2 := cache.Config{Name: "LLC", Size: size, Ways: ways}
			hw.L2 = &l2
			hws = append(hws, hw)
		}
	}
	return hws
}

// layerWalk measures every layer once on the nine paper targets: record
// (Cache.TraceFor on a cache with no store), store load, compile for 64 B
// lines, serial replay on the SoC, eight serial replays against one
// batched walk over eight LLC variants, pricing (whose three profiles are
// checked against the model's laws), one explore sweep, pimsim start-up,
// and — where the workload's ops did not already — one regeneration and
// a short serve session. The interpreter's replay time is
// logged beside the compiled engine's as a reference figure only.
func (b *bench) layerWalk(o *outcome) (map[string]float64, error) {
	v := map[string]float64{}
	storeDir := filepath.Join(b.work, "store")
	if _, ok := o.layers["gopim.eval_clip_s"]; !ok {
		v["gopim.eval_clip_s"] = b.tr.timed("gopim.eval_clip", -1, -1, func() { gopim.EvalClip(gopim.Quick) })
	}
	targets := gopim.Targets(gopim.Quick)
	if len(targets) != len(families) {
		return nil, fmt.Errorf("%d paper targets, want %d", len(targets), len(families))
	}
	startS, err := b.pimsimStart(storeDir)
	if err != nil {
		return nil, err
	}
	v["pimsim.start_s"] = startS

	st, err := trace.OpenStore(storeDir)
	if err != nil {
		return nil, err
	}
	live := trace.NewCache()
	soc := profile.SoC()
	variants := llcVariants()
	ev := core.NewEvaluator()
	for i, t := range targets {
		f := families[i]
		var tr *trace.Trace
		rec := b.tr.timed("trace.record", -1, -1, func() { tr = live.TraceFor(t.Kernel) })
		v["trace.record."+f+"_s"] = rec
		v["trace.record_s"] += rec
		v["trace.records"]++
		v["trace.record_words"] += float64(tr.Words())

		key := profile.KeyOf(t.Kernel)
		var loaded bool
		v["trace.store.load_s"] += b.tr.timed("trace.store.load", -1, -1, func() { _, loaded = st.Load(key) })
		v["trace.store.loads"]++
		if !loaded {
			return nil, fmt.Errorf("the set-up store lacks %s", t.Name)
		}
		v["trace.store.load_mb"] += mb(entrySize(storeDir, key))

		comp := b.tr.timed("trace.compile", -1, -1, func() { tr.Compiled(64) })
		v["trace.compile_s"] += comp
		v["trace.compiles"]++
		v["trace.compiled_words"] += float64(tr.CompiledWords(64))

		var socProf profile.Profile
		var socPhases map[string]profile.Profile
		rep := b.tr.timed("trace.replay", -1, -1, func() { socProf, socPhases = tr.Replay(soc) })
		v["trace.replay."+f+"_s"] = rep
		v["trace.replay_s"] += rep
		v["trace.replays"]++
		interp := b.tr.timed("trace.replay_interp", -1, -1, func() { tr.ReplayInterp(soc) })

		serial := make([]trace.BatchResult, len(variants))
		serialS := b.tr.timed("trace.replay_serial8", -1, -1, func() {
			for k, hw := range variants {
				serial[k].Profile, serial[k].Phases = tr.Replay(hw)
			}
		})
		var batch []trace.BatchResult
		batchS := b.tr.timed("trace.batch", -1, -1, func() { batch = tr.ReplayBatch(variants) })
		v["trace.batch."+f+"_k8_s"] = batchS
		v["trace.batch_s"] += batchS
		v["trace.batch_walks"]++
		v["trace.batch_slots"] += float64(len(variants))
		for k := range variants {
			if !sameProfiles(batch[k].Profile, batch[k].Phases, serial[k].Profile, serial[k].Phases) {
				b.fail("%s: batched replay differs from serial replay on LLC variant %d", t.Name, k)
			}
		}
		logf("layer walk %-15s record %7.1f ms  compile %6.1f ms  replay %6.1f ms  interp %6.1f ms  serial x8 %7.1f ms  batch k8 %7.1f ms",
			f, 1e3*rec, 1e3*comp, 1e3*rep, 1e3*interp, 1e3*serialS, 1e3*batchS)

		pim, pimPhases := tr.Replay(profile.PIMCore())
		acc, accPhases := tr.Replay(profile.PIMAcc())
		for _, v := range lawViolations(soc, socProf, socPhases) {
			b.fail("%s: %s", t.Name, v)
		}
		for _, v := range lawViolations(profile.PIMCore(), pim, pimPhases) {
			b.fail("%s: %s", t.Name, v)
		}
		for _, v := range lawViolations(profile.PIMAcc(), acc, accPhases) {
			b.fail("%s: %s", t.Name, v)
		}
		v["core.price_s"] += b.tr.timed("core.price", -1, -1, func() {
			ev.EvaluateProfiles(t, core.SelectPhases(socProf, socPhases, t.Phases),
				core.SelectPhases(pim, pimPhases, t.Phases), core.SelectPhases(acc, accPhases, t.Phases))
		})
		v["core.prices"]++
	}
	ss := st.Stats()
	v["trace.store.misses"] = float64(ss.Misses)
	v["trace.store.corrupt"] = float64(ss.Corrupt)

	res, err := experiments.Explore(experiments.Options{Scale: gopim.Quick, Workers: 1, Traces: live},
		experiments.ExploreOptions{Mode: "random", N: exploreN, Seed: mix(b.seed, 1<<40)})
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	v["experiments.explore_render_s"] = b.tr.timed("experiments.explore_render", -1, -1, func() {
		err = experiments.RenderExplore(&out, res, "json")
	})
	if err != nil {
		return nil, err
	}
	b.checkExplore("layer-walk sweep", out.Bytes())
	v["experiments.explore_configs"] = float64(res.Configs)
	v["experiments.explore_geometries"] = float64(res.Geometries)

	if _, ok := o.layers["experiments.table1_s"]; !ok {
		if err := b.walkRegen(v, storeDir); err != nil {
			return nil, err
		}
	}
	if _, ok := o.layers["serve.run_s"]; !ok {
		if err := b.walkServe(v, live, targets); err != nil {
			return nil, err
		}
	}
	return v, nil
}

// storeEntryName is the hex SHA-256 of a kernel key, the name the store
// files its entry under.
func storeEntryName(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

// entrySize returns the on-disk size of key's store entry (0 if absent),
// following the store's documented layout
// <dir>/v<version>/<hh>/<sha256(key)>.trace.
func entrySize(dir, key string) int64 {
	name := storeEntryName(key)
	matches, _ := filepath.Glob(filepath.Join(dir, "v*", name[:2], name+".trace"))
	if len(matches) != 1 {
		return 0
	}
	info, err := os.Stat(matches[0])
	if err != nil {
		return 0
	}
	return info.Size()
}

// walkRegen runs one regeneration on a cache backed by the workload's
// store, for the experiment and render layers of a workload whose ops do
// not regenerate the paper.
func (b *bench) walkRegen(v map[string]float64, storeDir string) error {
	reg := obs.NewRegistry()
	c, err := storeCache(storeDir, reg)
	if err != nil {
		return err
	}
	var results []experiments.RunResult
	b.tr.timed("experiments.run_all", -1, -1, func() {
		results = experiments.RunAll(experiments.Options{Scale: gopim.Quick, Workers: 1, Traces: c, Obs: reg})
	})
	var renderErr error
	v["experiments.render_s"] = b.tr.timed("experiments.render", -1, -1, func() { _, renderErr = renderAll(results) })
	if renderErr != nil {
		return renderErr
	}
	for _, r := range results {
		v["experiments."+r.Name+"_s"] = float64(r.WallNS) / 1e9
	}
	c.Store.Wait()
	return nil
}

// walkServe runs a short serve session — the popular job, then one round
// of jobs — on the walk's warm cache, for the serve layers of a workload
// whose ops do not go through the server.
func (b *bench) walkServe(v map[string]float64, c *trace.Cache, targets []gopim.Target) error {
	reg := obs.NewRegistry()
	srv, api, popularRef, err := b.startServer(c, reg)
	if err != nil {
		return err
	}
	before := reg.Snapshot()
	ops := b.drive(&outcome{}, api.Addr(), true, popularRef, 1, nil)
	shutdown(api, srv)
	if len(ops) == 0 {
		return fmt.Errorf("serve session: no job completed")
	}
	layers, _, _ := serveLayers(ops, before, reg.Snapshot(), c, len(targets), nil)
	for _, k := range []string{"serve.http_s", "serve.queue_wait_s", "serve.run_s", "serve.cells_requests",
		"serve.cells_computed", "serve.cells_coalesced", "serve.cells_memo_hits", "serve.dedup_ratio", "serve.jobs_rejected"} {
		v[k] = layers[k]
	}
	return nil
}

// at converts a wall-clock instant to the tracer clock.
func (t *tracer) at(tm time.Time) int64 {
	if t == nil {
		return 0
	}
	return int64(tm.Sub(t.t0))
}
