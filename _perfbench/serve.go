package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"path/filepath"
	"sort"
	"time"

	"gopim"
	"gopim/experiments"
	"gopim/internal/obs"
	"gopim/internal/par"
	"gopim/internal/profile"
	"gopim/internal/serve"
	"gopim/internal/trace"
)

// Serve-explore traffic: one closed-loop client submits random design
// sweeps of exploreN points in rounds of popularEvery jobs. The last job
// of every round repeats one popular spec, so memo-served jobs are the
// same sixth of every run and the median op is a computed one. One client
// keeps a single computation running at a time, so an op measures its own
// service rather than a share of another job's.
const (
	exploreN     = 3
	popularEvery = 6
)

// exploreLines are the line sizes the explorer's random designs use; set-up
// compiles every target for each so no timed op pays a first compile.
var exploreLines = []uint64{64, 128}

var httpClient = &http.Client{Timeout: 2 * time.Minute}

// jobOp is one serve-explore op as the client saw it.
type jobOp struct {
	g          int64 // submission index
	seed       int64
	t0, t1, t2 time.Time // submit, admission reply, last result byte
	cpu        float64   // this process's CPU seconds from t0 to t2
	out        []byte
}

func (op jobOp) popular() bool { return op.g%popularEvery == popularEvery-1 }

// spec returns the sweep spec of the g-th job: fresh seeds derived from
// the workload seed, except every popularEvery-th job, which repeats the
// popular spec (g = -1).
func (b *bench) spec(g int64) serve.JobSpec {
	seed := mix(b.seed, uint64(g)+1)
	if g < 0 || g%popularEvery == popularEvery-1 {
		seed = mix(b.seed, 0)
	}
	return serve.JobSpec{Kind: "explore", Mode: "random", N: exploreN, Seed: seed, Format: "json", Tenant: "bench"}
}

// serveExplore drives an in-process pimsimd (one job runner, one sweep
// worker) over loopback HTTP. Set-up encodes the clip, records the nine
// paper targets into a store-backed cache, compiles them for every line
// size, starts the server and computes the popular spec once.
func serveExplore(b *bench) (*outcome, error) {
	o := &outcome{layers: map[string]float64{}}
	storeDir := filepath.Join(b.work, "store")

	var setupReg *obs.Registry
	if b.traced {
		setupReg = obs.NewRegistry()
	}
	start, startCPU := time.Now(), cpuSeconds()
	sid := b.tr.begin("setup", -1, -1)
	st, err := trace.OpenStore(storeDir)
	if err != nil {
		return nil, err
	}
	// Set-up's store writes are measured; the cache stays unobserved, since
	// traces take their registry from the cache that records them.
	st.Obs = setupReg
	setupReg.AddSource(obs.PrefixTraceStore, st)
	c := trace.NewCache()
	c.Store = st
	clipS := b.tr.timed("gopim.eval_clip", -1, sid, func() { gopim.EvalClip(gopim.Quick) })
	targets := gopim.Targets(gopim.Quick)
	for _, t := range targets {
		b.tr.timed("trace.record", -1, sid, func() { precompile(c.TraceFor(t.Kernel)) })
	}
	st.Wait()
	srv, api, popularRef, err := b.startServer(c, nil)
	if err != nil {
		return nil, err
	}
	b.tr.end(sid)
	o.setupS = cpuSeconds() - startCPU
	logf("set-up: %.2f s CPU, %.2f s wall", o.setupS, time.Since(start).Seconds())

	snap, err := snapshotStore(storeDir)
	if err != nil {
		return nil, err
	}
	o.storeMB = mb(snap.bytes())
	if b.traced {
		o.layers["gopim.eval_clip_s"] = clipS
		saveLayers(o.layers, setupReg.Snapshot())
	}

	if b.traced {
		// A traced run splits its window between an untraced server and a
		// traced one.
		b.window /= 2
	}
	rss := sampleRSS()
	ops := b.drive(o, api.Addr(), false, popularRef, 0, rss)
	o.peakRSSMB = rss.done()
	shutdown(api, srv)
	if err := b.checkSample(ops, storeDir); err != nil {
		return nil, err
	}
	b.checkLaws(targets, c)
	if !b.traced {
		return o, nil
	}
	return o, b.tracedServe(o, storeDir, targets)
}

// precompile lowers a trace for every explore line size.
func precompile(tr *trace.Trace) {
	for _, ls := range exploreLines {
		tr.Compiled(ls)
	}
}

// startServer starts a one-runner, one-worker server over c with its API
// on loopback, and computes the popular spec once so later repeats are
// served from the memo. It returns the popular spec's result bytes.
func (b *bench) startServer(c *trace.Cache, reg *obs.Registry) (*serve.Server, *serve.API, []byte, error) {
	srv := serve.NewServer(serve.Config{JobWorkers: 1, Workers: 1, Traces: c, Reg: reg})
	api, err := serve.ServeAPI("127.0.0.1:0", srv)
	if err != nil {
		srv.Close()
		return nil, nil, nil, err
	}
	base := "http://" + api.Addr()
	id, err := submitJob(base, b.spec(-1))
	var ref []byte
	if err == nil {
		ref, err = streamJob(base, id)
	}
	if err != nil {
		shutdown(api, srv)
		return nil, nil, nil, fmt.Errorf("popular job: %w", err)
	}
	b.checkExplore("popular job", ref)
	return srv, api, ref, nil
}

func shutdown(api *serve.API, srv *serve.Server) {
	if err := api.Close(); err != nil {
		logf("closing API: %v", err)
	}
	srv.Close()
}

// drive runs the client in rounds of popularEvery jobs until the window
// closes, or for the given number of rounds when rounds > 0, and checks
// every result. A non-nil rss keeps each job's peak memory.
func (b *bench) drive(o *outcome, addr string, traced bool, popularRef []byte, rounds int, rss *rssSampler) []jobOp {
	base := "http://" + addr
	var ops []jobOp
	var g int64
	tt0, ts0 := hostTicks()
	started := time.Now()
	for round := 0; ; round++ {
		if rounds > 0 && round == rounds || rounds == 0 && b.windowClosed(started, round) {
			break
		}
		for k := 0; k < popularEvery; k++ {
			sp := b.spec(g)
			op := jobOp{g: g, seed: sp.Seed, t0: time.Now()}
			c0 := cpuSeconds()
			g++
			o.attempted++
			id, err := submitJob(base, sp)
			op.t1 = time.Now()
			if err == nil {
				op.out, err = streamJob(base, id)
			}
			op.t2, op.cpu = time.Now(), cpuSeconds()-c0
			rss.opDone()
			if err != nil {
				o.failed++
				logf("job %d failed: %v", op.g, err)
				continue
			}
			ops = append(ops, op)
		}
	}
	var walls, cpus []float64
	for _, op := range ops {
		walls = append(walls, op.t2.Sub(op.t0).Seconds())
		cpus = append(cpus, op.cpu)
		if traced {
			o.tracedLat = append(o.tracedLat, op.cpu)
		} else {
			o.lat = append(o.lat, op.cpu)
		}
		what := fmt.Sprintf("job %d", op.g)
		b.checkExplore(what, op.out)
		if op.popular() {
			b.checkBytes(what+" (repeat of the popular spec)", popularRef, op.out)
		}
	}
	logf("%d jobs (traced %v), median %.3f s CPU, %.3f s wall, host steal %.1f%%",
		len(ops), traced, median(cpus), median(walls), stealPct(tt0, ts0))
	return ops
}

// checkExplore checks one explore result's Pareto marking.
func (b *bench) checkExplore(what string, out []byte) {
	res, err := decodeExplore(out)
	if err != nil {
		b.fail("%s: %v", what, err)
		return
	}
	for _, v := range paretoViolations(res.Rows) {
		b.fail("%s: %s", what, v)
	}
}

func decodeExplore(out []byte) (*experiments.ExploreResult, error) {
	var res experiments.ExploreResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("decoding explore result: %w", err)
	}
	if len(res.Rows) == 0 {
		return nil, fmt.Errorf("explore result has no rows")
	}
	return &res, nil
}

// checkSample recomputes one seeded job's sweep directly — Explore and
// RenderExplore on a private store-backed cache, no server, memo or HTTP
// — and requires the served bytes to match.
func (b *bench) checkSample(ops []jobOp, storeDir string) error {
	var computed []jobOp
	for _, op := range ops {
		if !op.popular() {
			computed = append(computed, op)
		}
	}
	if len(computed) == 0 {
		return nil
	}
	op := computed[rand.New(rand.NewSource(b.seed)).Intn(len(computed))]
	c, err := storeCache(storeDir, nil)
	if err != nil {
		return err
	}
	res, err := experiments.Explore(experiments.Options{Scale: gopim.Quick, Workers: 1, Traces: c},
		experiments.ExploreOptions{Mode: "random", N: exploreN, Seed: op.seed})
	if err != nil {
		return err
	}
	var want bytes.Buffer
	if err := experiments.RenderExplore(&want, res, "json"); err != nil {
		return err
	}
	b.checkBytes(fmt.Sprintf("job %d against a direct sweep", op.g), want.Bytes(), op.out)
	return nil
}

// tracedServe repeats the window on a traced server — the program's
// registry attached through serve.Config.Reg, par.SetObs and a cache
// whose traces load from the set-up store with the registry attached —
// and derives the serve-explore ledger from it and from the client's
// timings.
func (b *bench) tracedServe(o *outcome, storeDir string, targets []gopim.Target) error {
	reg := obs.NewRegistry()
	par.SetObs(reg)
	defer par.SetObs(nil)
	c, err := storeCache(storeDir, nil)
	if err != nil {
		return err
	}
	srv, api, popularRef, err := b.startServer(c, reg)
	if err != nil {
		return err
	}
	for _, t := range targets {
		precompile(c.TraceFor(t.Kernel))
	}
	before := reg.Snapshot()
	ops := b.drive(o, api.Addr(), true, popularRef, 0, nil)
	shutdown(api, srv)
	if len(ops) == 0 {
		return fmt.Errorf("no traced job completed")
	}
	layers, wall, attributed := serveLayers(ops, before, reg.Snapshot(), c, len(targets), b.tr)
	for k, v := range layers {
		o.layers[k] = v
	}
	o.opWallS, o.attributedS = wall, attributed
	return b.checkBatchAgainstDirect(ops, c, targets)
}

// serveLayers derives the serve-side layers of a set of jobs from the
// client's timings and the server registry's change over the jobs, and
// returns them with the jobs' summed wall time and the part of it the
// named layers account for: the admission round trip, the queue wait
// (the runner serves jobs in admission order, so a job waits until the
// job admitted before it has finished) and the server's own job span.
// A non-nil tracer records each job's spans.
func serveLayers(ops []jobOp, before, after obs.Snapshot, c *trace.Cache, nTargets int, tr *tracer) (map[string]float64, float64, float64) {
	n := float64(len(ops))
	byAdmission := append([]jobOp(nil), ops...)
	sort.Slice(byAdmission, func(i, j int) bool { return byAdmission[i].t1.Before(byAdmission[j].t1) })
	var wall, httpS, waitS, slots, configs, geoms float64
	var prevDone time.Time
	for _, op := range byAdmission {
		root := tr.add("op", int(op.g), -1, tr.at(op.t0), tr.at(op.t2))
		tr.add("serve.http", int(op.g), root, tr.at(op.t0), tr.at(op.t1))
		httpS += op.t1.Sub(op.t0).Seconds()
		if prevDone.After(op.t1) {
			tr.add("serve.queue_wait", int(op.g), root, tr.at(op.t1), tr.at(prevDone))
			waitS += prevDone.Sub(op.t1).Seconds()
		}
		prevDone = op.t2
		wall += op.t2.Sub(op.t0).Seconds()
		if res, err := decodeExplore(op.out); err == nil {
			slots += float64(nTargets * res.Geometries)
			configs += float64(res.Configs)
			geoms += float64(res.Geometries)
		}
	}
	delta := func(name string) float64 { return float64(after.Counters[name] - before.Counters[name]) }
	hsum := func(name string) float64 {
		return float64(after.Histograms[name].Sum-before.Histograms[name].Sum) / 1e9
	}
	hcount := func(name string) float64 {
		return float64(after.Histograms[name].Count - before.Histograms[name].Count)
	}
	runS := hsum("serve.phase.job")
	requests := delta("serve.cells.requests")
	busy, idle := delta("par.worker.busy_ns"), delta("par.worker.idle_ns")
	layers := map[string]float64{
		"serve.http_s":                   httpS / n,
		"serve.queue_wait_s":             waitS / n,
		"serve.run_s":                    runS / n,
		"serve.cells_requests":           requests / n,
		"serve.cells_computed":           delta("serve.cells.computed") / n,
		"serve.cells_coalesced":          delta("serve.cells.coalesced") / n,
		"serve.cells_memo_hits":          delta("serve.cells.memo_hits") / n,
		"serve.dedup_ratio":              ratio(delta("serve.cells.coalesced")+delta("serve.cells.memo_hits"), requests),
		"serve.jobs_rejected":            delta("serve.jobs.rejected"),
		"trace.batch_s":                  hsum("phase.replay.batch") / n,
		"trace.batch_walks":              hcount("phase.replay.batch") / n,
		"trace.batch_slots":              slots / n,
		"core.price_s":                   hsum("phase.price") / n,
		"core.prices":                    hcount("phase.price") / n,
		"experiments.explore_configs":    configs / n,
		"experiments.explore_geometries": geoms / n,
		"trace.cache.requests":           delta("trace.cache.requests") / n,
		"trace.cache.hits":               delta("trace.cache.hits") / n,
		"trace.cache.hit_ratio":          ratio(delta("trace.cache.hits"), delta("trace.cache.requests")),
		"trace.cache.store_hits":         delta("trace.cache.store_hits") / n,
		"trace.cache.evictions":          delta("trace.cache.evictions") / n,
		"trace.cache.mem_mb":             mb(c.MemBytes()),
		"par.busy_s":                     busy / 1e9 / n,
		"par.utilization":                ratio(busy, busy+idle),
	}
	// A warm server compiled every line size in set-up; only a compile
	// that happened during the jobs is the jobs' own.
	if hcount("phase.compile") > 0 {
		layers["trace.compile_s"] = hsum("phase.compile") / n
		layers["trace.compiles"] = hcount("phase.compile") / n
	}
	return layers, wall, httpS + waitS + runS
}

// checkBatchAgainstDirect picks a seeded geometry from a served sweep and
// a seeded target, batch-replays the target's trace over that geometry and
// the sweep's other geometries of the same line size, and requires the
// result to equal direct kernel execution (profile.Run, no trace cache).
func (b *bench) checkBatchAgainstDirect(ops []jobOp, c *trace.Cache, targets []gopim.Target) error {
	rng := rand.New(rand.NewSource(b.seed))
	res, err := decodeExplore(ops[rng.Intn(len(ops))].out)
	if err != nil {
		return err
	}
	pick := exploreHardware(res.Rows[rng.Intn(len(res.Rows))].Point)
	hws := []profile.Hardware{pick}
	seen := map[string]bool{trace.HardwareKey(pick): true}
	for _, row := range res.Rows {
		hw := exploreHardware(row.Point)
		if key := trace.HardwareKey(hw); !seen[key] && lineSize(hw) == lineSize(pick) && len(hws) < 8 {
			seen[key] = true
			hws = append(hws, hw)
		}
	}
	t := targets[rng.Intn(len(targets))]
	got := c.TraceFor(t.Kernel).ReplayBatch(hws)[0]
	want, wantPhases := profile.Run(pick, t.Kernel)
	if !sameProfiles(got.Profile, got.Phases, want, wantPhases) {
		b.fail("%s on %s: batch replay differs from direct execution", t.Name, trace.HardwareKey(pick))
	}
	return nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func submitJob(base string, sp serve.JobSpec) (string, error) {
	body, err := json.Marshal(sp)
	if err != nil {
		return "", err
	}
	resp, err := httpClient.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(resp.Body)
		return "", fmt.Errorf("submit: %s: %s", resp.Status, msg)
	}
	var st serve.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return "", fmt.Errorf("submit: %w", err)
	}
	return st.ID, nil
}

// streamRecord mirrors one line of the /jobs/{id}/stream response.
type streamRecord struct {
	Chunk *serve.Chunk   `json:"chunk,omitempty"`
	Done  bool           `json:"done,omitempty"`
	State serve.JobState `json:"state,omitempty"`
	Error string         `json:"error,omitempty"`
}

// streamJob waits on a job's stream and returns its result bytes.
func streamJob(base, id string) ([]byte, error) {
	resp, err := httpClient.Get(base + "/jobs/" + id + "/stream")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("stream %s: %s", id, resp.Status)
	}
	dec := json.NewDecoder(resp.Body)
	var out bytes.Buffer
	for {
		var rec streamRecord
		if err := dec.Decode(&rec); err != nil {
			return nil, fmt.Errorf("stream %s: %w", id, err)
		}
		if rec.Chunk != nil {
			out.WriteString(rec.Chunk.Output)
		}
		if rec.Done {
			if rec.State != serve.StateDone {
				return nil, fmt.Errorf("job %s %s: %s", id, rec.State, rec.Error)
			}
			return out.Bytes(), nil
		}
	}
}
