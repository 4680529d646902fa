package main

import (
	"bytes"
	"fmt"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"strings"
	"time"

	"gopim"
	"gopim/experiments"
	"gopim/internal/obs"
	"gopim/internal/par"
	"gopim/internal/trace"
)

// paperRegen is a researcher regenerating the paper in a process that has
// already paid for the evaluation clip: every op runs experiments.RunAll
// with one worker on a fresh trace cache backed by the store set-up
// filled, and renders every experiment as `pimsim run all` prints them.
// Set-up encodes the clip and runs the same regeneration into an empty
// store, which executes and records every keyed kernel live; its rendering
// is the reference every op must reproduce byte for byte, and no op may
// execute a kernel or touch the store.
func paperRegen(b *bench) (*outcome, error) {
	o := &outcome{layers: map[string]float64{}}
	storeDir := filepath.Join(b.work, "store")

	start, startCPU := time.Now(), cpuSeconds()
	sid := b.tr.begin("setup", -1, -1)
	clipS := b.tr.timed("gopim.eval_clip", -1, sid, func() { gopim.EvalClip(gopim.Quick) })
	var setupReg *obs.Registry
	if b.traced {
		setupReg = obs.NewRegistry()
	}
	st, err := trace.OpenStore(storeDir)
	if err != nil {
		return nil, err
	}
	// Set-up's store writes are measured; the cache stays unobserved, since
	// traces take their registry from the cache that records them.
	st.Obs = setupReg
	setupReg.AddSource(obs.PrefixTraceStore, st)
	live := trace.NewCache()
	live.Store = st
	ref, err := renderAll(experiments.RunAll(regenOptions(live, nil)))
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	st.Wait()
	liveStats := live.Stats()
	// Ops start from a fresh cache; hand set-up's traces back to the OS so
	// the ops' peak memory is their own.
	debug.FreeOSMemory()
	b.tr.end(sid)
	o.setupS = cpuSeconds() - startCPU
	logf("set-up: %.2f s CPU, %.2f s wall", o.setupS, time.Since(start).Seconds())

	snap, err := snapshotStore(storeDir)
	if err != nil {
		return nil, err
	}
	o.storeMB = mb(snap.bytes())
	entries := len(snap)
	b.checkLiveSetup(liveStats, st.Stats(), entries)
	if b.traced {
		o.layers["gopim.eval_clip_s"] = clipS
		saveLayers(o.layers, setupReg.Snapshot())
	}

	rss := sampleRSS()
	var reports []*obs.Report
	var walls []float64
	tt0, ts0 := hostTicks()
	b.serialOps(o, func(i int, traced bool) (float64, error) {
		var reg *obs.Registry
		if traced {
			reg = obs.NewRegistry()
			par.SetObs(reg)
			defer par.SetObs(nil)
		}
		t0, c0 := time.Now(), cpuSeconds()
		c, err := storeCache(storeDir, reg)
		if err != nil {
			return 0, err
		}
		results := experiments.RunAll(regenOptions(c, reg))
		t1 := time.Now()
		out, err := renderAll(results)
		t2, cpu := time.Now(), cpuSeconds()-c0
		rss.opDone()
		if err != nil {
			return 0, err
		}
		b.checkBytes(fmt.Sprintf("op %d rendering", i), ref, out)
		if why := servedByStore(c.Stats(), c.Store.Stats(), entries); why != "" {
			b.fail("op %d left the store path: %s", i, why)
		}
		after, err := snapshotStore(storeDir)
		if err != nil {
			return 0, err
		}
		if diff := snap.diff(after); diff != "" {
			b.fail("op %d did not run from the store: %s", i, diff)
		}
		if traced {
			reports = append(reports, b.traceRegenOp(i, reg, results, t0, t1, t2))
		}
		if !traced {
			walls = append(walls, t2.Sub(t0).Seconds())
		}
		return cpu, nil
	})
	o.peakRSSMB = rss.done()
	logf("%d ops, median %.3f s CPU, %.3f s wall, host steal %.1f%%", len(o.lat), median(o.lat), median(walls), stealPct(tt0, ts0))
	for _, rep := range reports {
		addReportLayers(o.layers, rep, snap.bytes(), entries, 1/float64(len(reports)))
	}
	if b.traced {
		o.opWallS, o.attributedS = opLedger(b.tr)
	}
	return o, nil
}

// regenOptions are the options of every regeneration: quick scale, one
// worker, traces through c, and reg (nil when untraced) for the
// experiments' compute spans.
func regenOptions(c *trace.Cache, reg *obs.Registry) experiments.Options {
	return experiments.Options{Scale: gopim.Quick, Workers: 1, Traces: c, Obs: reg}
}

// traceRegenOp records a traced op's spans — the op from t0 to t2, each
// experiment's compute span (RunAll runs them one after another at one
// worker, in result order) and the render from t1 to t2 — and returns the
// op's registry as a run report.
func (b *bench) traceRegenOp(i int, reg *obs.Registry, results []experiments.RunResult, t0, t1, t2 time.Time) *obs.Report {
	root := b.tr.add("op", i, -1, b.tr.at(t0), b.tr.at(t2))
	at := b.tr.at(t0)
	times := make([]obs.ExperimentTime, len(results))
	for k, r := range results {
		b.tr.add("experiments."+r.Name, i, root, at, at+r.WallNS)
		at += r.WallNS
		times[k] = obs.ExperimentTime{Name: r.Name, WallNS: r.WallNS}
	}
	b.tr.add("experiments.render", i, root, b.tr.at(t1), b.tr.at(t2))
	return obs.BuildReport(reg, obs.RunMeta{Command: "run", Scale: "quick", Workers: 1}, int64(t2.Sub(t0)), times)
}

// checkLiveSetup checks that set-up recorded every keyed kernel live and
// wrote each one to the store, so its output is the live reference the
// ops are compared with.
func (b *bench) checkLiveSetup(c trace.Stats, s trace.StoreStats, entries int) {
	if int(c.Records) != entries || int(s.Saves) != entries || c.Misses != 0 || s.SaveErrors != 0 {
		b.fail("set-up was not a complete live recording: %d recorded, %d unkeyed, %d saved (%d errors), %d store entries",
			c.Records, c.Misses, s.Saves, s.SaveErrors, entries)
	}
}

// saveLayers records set-up's store writes.
func saveLayers(layers map[string]float64, m obs.Snapshot) {
	h := m.Histograms["phase.store.save"]
	layers["trace.store.save_s"] = float64(h.Sum) / 1e9
	layers["trace.store.saves"] = float64(m.Counters["trace.store.saves"])
	layers["trace.store.save_errors"] = float64(m.Counters["trace.store.save_errors"])
}

// addReportLayers adds w times one run report's phase totals and counters
// to the per-layer values (w = 1/ops gives the mean per op).
func addReportLayers(layers map[string]float64, rep *obs.Report, storeBytes int64, entries int, w float64) {
	m := rep.Metrics
	c := m.Counters
	hs := func(name string) float64 { return float64(m.Histograms[name].Sum) / 1e9 }
	hn := func(name string) float64 { return float64(m.Histograms[name].Count) }
	var expS float64
	for _, e := range rep.Experiments {
		s := float64(e.WallNS) / 1e9
		layers["experiments."+e.Name+"_s"] += w * s
		expS += s
	}
	hits := float64(c["trace.store.hits"])
	add := map[string]float64{
		"experiments.render_s":   float64(rep.WallNS)/1e9 - expS,
		"trace.store.load_s":     hs("phase.store.load"),
		"trace.store.loads":      hn("phase.store.load"),
		"trace.store.load_mb":    mb(storeBytes) * hits / float64(entries),
		"trace.store.misses":     float64(c["trace.store.misses"]),
		"trace.store.corrupt":    float64(c["trace.store.corrupt"]),
		"trace.compile_s":        hs("phase.compile"),
		"trace.compiles":         hn("phase.compile"),
		"trace.replay_s":         hs("phase.replay.compiled") - hs("phase.compile"),
		"trace.replays":          hn("phase.replay.compiled"),
		"core.price_s":           hs("phase.price"),
		"core.prices":            hn("phase.price"),
		"trace.cache.requests":   float64(c["trace.cache.requests"]),
		"trace.cache.hits":       float64(c["trace.cache.hits"]),
		"trace.cache.hit_ratio":  rep.Derived.TraceCacheHitRate,
		"trace.cache.store_hits": float64(c["trace.cache.store_hits"]),
		"trace.cache.evictions":  float64(c["trace.cache.evictions"]),
		"trace.cache.mem_mb":     mb(c["trace.cache.mem_bytes"]),
		"par.busy_s":             float64(c["par.worker.busy_ns"]) / 1e9,
		"par.utilization":        rep.Derived.WorkerUtilization,
	}
	for k, v := range add {
		layers[k] += w * v
	}
}

// pimsimStart measures cmd/pimsim's fixed cost — process start, flag
// parsing, store open, exit — as the median wall time of fresh
// `pimsim -scale quick -workers 1 -tracestore <store> run table1`
// processes (table1 is a static table).
func (b *bench) pimsimStart(store string) (float64, error) {
	var ds []float64
	for i := 0; i < 9; i++ {
		cmd := exec.Command(b.pimsim, "-scale", "quick", "-workers", "1", "-tracestore", store, "run", "table1")
		var stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = nil, &stderr
		t0 := time.Now()
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("pimsim run table1: %v: %s", err, strings.TrimSpace(stderr.String()))
		}
		ds = append(ds, time.Since(t0).Seconds())
	}
	return median(ds), nil
}

// storeCache returns a fresh trace cache backed by the store in dir, with
// reg (nil for none) attached to both the way pimsim's -report attaches
// it.
func storeCache(dir string, reg *obs.Registry) (*trace.Cache, error) {
	st, err := trace.OpenStore(dir)
	if err != nil {
		return nil, err
	}
	c := trace.NewCache()
	c.Store = st
	attach(reg, c, st)
	return c, nil
}

// renderAll renders RunAll results exactly as `pimsim run all` prints
// them.
func renderAll(results []experiments.RunResult) ([]byte, error) {
	var buf bytes.Buffer
	for _, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("%s: %w", r.Name, r.Err)
		}
		fmt.Fprintf(&buf, "==== %s ====\n", r.Name)
		if err := experiments.Render(&buf, r.Name, r.Data); err != nil {
			return nil, fmt.Errorf("%s: %w", r.Name, err)
		}
		fmt.Fprintln(&buf)
	}
	return buf.Bytes(), nil
}
