// Design-space exploration: price many hardware designs per stream walk.
//
// The paper evaluates three fixed design points (the baseline SoC, a
// per-vault PIM core, per-target PIM accelerators). Explore generalizes
// that evaluation into a sweep over cache geometry, line size, memory
// timing, engine width and accelerator efficiency: every kernel executes
// (or loads from the persistent store) exactly once, each distinct cache
// geometry is priced by replaying the kernel's trace, and geometries
// sharing a line size replay together through one batched replay
// (trace.Trace.ReplayBatch), which walks the trace once per distinct L1
// geometry, so a thousand-design sweep costs a few trace walks per kernel
// instead of a thousand kernel executions.
//
// Engine and energy knobs (IPC, units, latency, bandwidth, accelerator
// efficiency) never touch the memory-system profile, so they multiply the
// design space for free: points are priced from the replayed profiles with
// plain arithmetic. The output is, per workload, the swept points and
// their Pareto frontier over (energy, runtime, PIM logic area).
package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"

	"gopim"
	"gopim/internal/cache"
	"gopim/internal/core"
	"gopim/internal/mem"
	"gopim/internal/par"
	"gopim/internal/profile"
	"gopim/internal/timing"
	"gopim/internal/trace"
)

// ExploreOptions selects what the explorer sweeps.
type ExploreOptions struct {
	// Mode is "grid" (the fixed factorial sweep), "random" (N points
	// sampled from the same axes) or "paper" (the paper's three design
	// points, priced through core.EvaluateProfiles — the equivalence
	// anchor for the sweep machinery).
	Mode string
	// N is the number of points in random mode.
	N int
	// Seed seeds random mode; equal seeds give identical sweeps.
	Seed int64
}

// Design-point kinds, matching core.Mode presentation names.
const (
	KindCPU  = "CPU-Only"
	KindCore = "PIM-Core"
	KindAcc  = "PIM-Acc"
)

// DesignPoint is one hardware design: a cache geometry (which determines
// the replayed memory-system profile) plus engine and energy knobs (which
// only change how that profile is priced).
type DesignPoint struct {
	ID   int
	Kind string // KindCPU, KindCore or KindAcc

	// Geometry. L2 fields are zero for PIM kinds (no shared LLC inside
	// the stack); L1 is the accelerator's scratchpad buffer for KindAcc.
	L1Size   int
	L1Ways   int
	L2Size   int
	L2Ways   int
	LineSize int

	// Engine knobs.
	Units        int     // SoC cores / vault PIM cores / accelerator units
	IPC          float64 // sustained instructions per cycle per unit
	Eff          float64 // KindAcc: ops-per-joule advantage over the CPU core
	MemLatencyNS float64 // line fetch latency seen by the engine
	BandwidthGBs float64 // memory channel ceiling
}

// hardware returns the memory system the point's profile is replayed on.
// Names mirror the paper configs so trace.HardwareKey dedups identically.
func (p DesignPoint) hardware() profile.Hardware {
	l1 := cache.Config{Size: p.L1Size, Ways: p.L1Ways, LineSize: p.LineSize}
	switch p.Kind {
	case KindCPU:
		l1.Name = "L1D"
		l2 := cache.Config{Name: "LLC", Size: p.L2Size, Ways: p.L2Ways, LineSize: p.LineSize}
		return profile.Hardware{Name: KindCPU, L1: l1, L2: &l2}
	case KindCore:
		l1.Name = "PIM-L1"
		return profile.Hardware{Name: KindCore, L1: l1}
	default:
		l1.Name = "PIM-Buf"
		return profile.Hardware{Name: KindAcc, L1: l1}
	}
}

// engine returns the timing model pricing the point: the paper engine of
// its kind with the point's width, latency and bandwidth knobs applied.
func (p DesignPoint) engine() timing.Engine {
	var e timing.Engine
	switch p.Kind {
	case KindCPU:
		e = timing.SoC()
	case KindCore:
		e = timing.PIMCore(p.Units)
	default:
		e = timing.PIMAcc(p.Units)
	}
	e.IPC = p.IPC
	e.MemLatency = p.MemLatencyNS * 1e-9
	e.Bandwidth = p.BandwidthGBs * 1e9
	return e
}

// sramMM2 is the explorer's SRAM area proxy, anchored so the paper's
// 32 kB PIM structures cost 0.05 mm² and area scales linearly with
// capacity (CACTI-class SRAM at these sizes is capacity-dominated).
func sramMM2(bytes int) float64 {
	return 0.05 * float64(bytes) / float64(32<<10)
}

// areaMM2 returns the point's PIM logic-layer area proxy for a workload's
// targets. CPU designs add no in-memory logic. PIM cores are shared by
// every target of the workload (one core per used vault), so they count
// once; accelerators are per target, scaled from the paper's reported
// area by the unit count, so they sum.
func (p DesignPoint) areaMM2(targets []gopim.Target) float64 {
	sramDelta := sramMM2(p.L1Size) - sramMM2(32<<10)
	switch p.Kind {
	case KindCPU:
		return 0
	case KindCore:
		return float64(p.Units) * (gopim.PIMCoreArea + sramDelta)
	default:
		a := 0.0
		for _, t := range targets {
			units := t.AccUnits
			if units <= 0 {
				units = 4
			}
			a += t.AccArea*float64(p.Units)/float64(units) + sramDelta
		}
		return a
	}
}

// paperPoints returns the paper's three design points (Table 1 and §3.3):
// the anchor configurations every sweep axis varies around.
func paperPoints() []DesignPoint {
	return []DesignPoint{
		{Kind: KindCPU, L1Size: 64 << 10, L1Ways: 4, L2Size: 2 << 20, L2Ways: 8,
			LineSize: mem.LineSize, Units: 1, IPC: 2, MemLatencyNS: 80, BandwidthGBs: 32},
		{Kind: KindCore, L1Size: 32 << 10, L1Ways: 4,
			LineSize: mem.LineSize, Units: 4, IPC: 1, MemLatencyNS: 45, BandwidthGBs: 256},
		{Kind: KindAcc, L1Size: 32 << 10, L1Ways: 8,
			LineSize: mem.LineSize, Units: 4, IPC: 4, Eff: 20, MemLatencyNS: 45, BandwidthGBs: 256},
	}
}

// Sweep axes. Every combination appears in grid mode; random mode samples
// each axis independently. Geometry axes multiply replay work (each
// distinct geometry is one replay slot in a batched walk); knob axes are
// free (pricing arithmetic only).
var (
	cpuL1   = []cache.Config{{Size: 32 << 10, Ways: 4}, {Size: 64 << 10, Ways: 4}, {Size: 64 << 10, Ways: 8}}
	cpuL2   = []int{1 << 20, 2 << 20, 4 << 20}
	cpuLat  = []float64{60, 80, 100}
	cpuBW   = []float64{25.6, 32, 38.4}
	coreL1  = []cache.Config{{Size: 16 << 10, Ways: 4}, {Size: 32 << 10, Ways: 4}, {Size: 64 << 10, Ways: 4}, {Size: 32 << 10, Ways: 8}}
	accBuf  = []int{16 << 10, 32 << 10, 64 << 10, 128 << 10}
	accEff  = []float64{5, 10, 20, 40}
	pimBW   = []float64{128, 256, 512}
	pimLat  = []float64{45, 60}
	lines   = []int{64, 128}
	pimUnit = []int{2, 4, 8}
	coreIPC = []float64{1, 2}
)

// gridPoints enumerates the full factorial sweep: 162 CPU + 288 PIM-core
// + 576 PIM-accelerator designs (1026 points over 34 cache geometries).
func gridPoints() []DesignPoint {
	var pts []DesignPoint
	for _, l1 := range cpuL1 {
		for _, l2 := range cpuL2 {
			for _, line := range lines {
				for _, lat := range cpuLat {
					for _, bw := range cpuBW {
						pts = append(pts, DesignPoint{Kind: KindCPU,
							L1Size: l1.Size, L1Ways: l1.Ways, L2Size: l2, L2Ways: 8, LineSize: line,
							Units: 1, IPC: 2, MemLatencyNS: lat, BandwidthGBs: bw})
					}
				}
			}
		}
	}
	for _, l1 := range coreL1 {
		for _, line := range lines {
			for _, units := range pimUnit {
				for _, ipc := range coreIPC {
					for _, bw := range pimBW {
						for _, lat := range pimLat {
							pts = append(pts, DesignPoint{Kind: KindCore,
								L1Size: l1.Size, L1Ways: l1.Ways, LineSize: line,
								Units: units, IPC: ipc, MemLatencyNS: lat, BandwidthGBs: bw})
						}
					}
				}
			}
		}
	}
	for _, buf := range accBuf {
		for _, line := range lines {
			for _, units := range pimUnit {
				for _, eff := range accEff {
					for _, bw := range pimBW {
						for _, lat := range pimLat {
							pts = append(pts, DesignPoint{Kind: KindAcc,
								L1Size: buf, L1Ways: 8, LineSize: line,
								Units: units, IPC: 4, Eff: eff, MemLatencyNS: lat, BandwidthGBs: bw})
						}
					}
				}
			}
		}
	}
	return pts
}

// randomPoints samples n designs from the grid axes, reproducibly from
// seed (a local generator: equal seeds give equal sweeps at any worker
// count).
func randomPoints(n int, seed int64) []DesignPoint {
	rng := rand.New(rand.NewSource(seed))
	pickI := func(vals []int) int { return vals[rng.Intn(len(vals))] }
	pickF := func(vals []float64) float64 { return vals[rng.Intn(len(vals))] }
	pts := make([]DesignPoint, 0, n)
	for i := 0; i < n; i++ {
		switch rng.Intn(3) {
		case 0:
			l1 := cpuL1[rng.Intn(len(cpuL1))]
			pts = append(pts, DesignPoint{Kind: KindCPU,
				L1Size: l1.Size, L1Ways: l1.Ways, L2Size: pickI(cpuL2), L2Ways: 8, LineSize: pickI(lines),
				Units: 1, IPC: 2, MemLatencyNS: pickF(cpuLat), BandwidthGBs: pickF(cpuBW)})
		case 1:
			l1 := coreL1[rng.Intn(len(coreL1))]
			pts = append(pts, DesignPoint{Kind: KindCore,
				L1Size: l1.Size, L1Ways: l1.Ways, LineSize: pickI(lines),
				Units: pickI(pimUnit), IPC: pickF(coreIPC), MemLatencyNS: pickF(pimLat), BandwidthGBs: pickF(pimBW)})
		default:
			pts = append(pts, DesignPoint{Kind: KindAcc,
				L1Size: pickI(accBuf), L1Ways: 8, LineSize: pickI(lines),
				Units: pickI(pimUnit), IPC: 4, Eff: pickF(accEff), MemLatencyNS: pickF(pimLat), BandwidthGBs: pickF(pimBW)})
		}
	}
	return pts
}

// ExploreRow is one (workload, design point) outcome.
type ExploreRow struct {
	Workload string
	Point    DesignPoint
	EnergyPJ float64 // summed over the workload's targets
	Seconds  float64 // summed over the workload's targets
	AreaMM2  float64 // PIM logic-layer area proxy
	Pareto   bool    // on the workload's (energy, time, area) frontier
}

// ExploreResult is one sweep's full output.
type ExploreResult struct {
	Mode       string
	Configs    int // design points priced
	Geometries int // distinct cache geometries replayed
	BatchWalks int // batched stream walks ((target, line size) units)
	Workloads  []string
	Rows       []ExploreRow // grouped by workload, point-ID order
}

// Explore sweeps the design space: one kernel execution (or store load)
// per target, one batched trace walk per (target, line size), one replay
// slot per distinct cache geometry, and pure arithmetic per design point.
// Output is deterministic and independent of Options.Workers.
func Explore(o Options, x ExploreOptions) (*ExploreResult, error) {
	return ExploreCtx(context.Background(), o, x)
}

// explorePoints enumerates the sweep's design points for a mode.
func explorePoints(x ExploreOptions) ([]DesignPoint, error) {
	var points []DesignPoint
	switch x.Mode {
	case "grid":
		points = gridPoints()
	case "random":
		if x.N <= 0 {
			return nil, fmt.Errorf("explore: random mode needs N > 0 (got %d)", x.N)
		}
		points = randomPoints(x.N, x.Seed)
	case "paper":
		points = paperPoints()
	default:
		return nil, fmt.Errorf("explore: unknown mode %q (want grid, random or paper)", x.Mode)
	}
	for i := range points {
		points[i].ID = i
	}
	return points, nil
}

// exploreWorkloads returns workload presentation order and per-workload
// target indices, from the canonical Targets order.
func exploreWorkloads(targets []gopim.Target) ([]string, map[string][]int) {
	var workloads []string
	wTargets := map[string][]int{}
	for ti, t := range targets {
		if _, ok := wTargets[t.Workload]; !ok {
			workloads = append(workloads, t.Workload)
		}
		wTargets[t.Workload] = append(wTargets[t.Workload], ti)
	}
	return workloads, wTargets
}

// dedupGeometries maps points onto distinct cache geometries in
// first-occurrence order: pointHW[i] indexes hws.
func dedupGeometries(points []DesignPoint) (hws []profile.Hardware, pointHW []int) {
	hwIdx := map[string]int{}
	pointHW = make([]int, len(points))
	for i, p := range points {
		hw := p.hardware()
		key := trace.HardwareKey(hw)
		idx, ok := hwIdx[key]
		if !ok {
			idx = len(hws)
			hws = append(hws, hw)
			hwIdx[key] = idx
		}
		pointHW[i] = idx
	}
	return hws, pointHW
}

// hwGroup is one same-line-size geometry group: its members share one
// compiled program and one batched walk per target.
type hwGroup struct {
	line int
	idxs []int
}

// lineGroups groups geometry indices by line size, in first-occurrence
// order.
func lineGroups(hws []profile.Hardware) []hwGroup {
	var groups []hwGroup
	for i, hw := range hws {
		line := hw.L1.LineSize
		if line == 0 {
			line = mem.LineSize
		}
		gi := -1
		for j := range groups {
			if groups[j].line == line {
				gi = j
				break
			}
		}
		if gi < 0 {
			gi = len(groups)
			groups = append(groups, hwGroup{line: line})
		}
		groups[gi].idxs = append(groups[gi].idxs, i)
	}
	return groups
}

// makeProfMatrix allocates the [target][geometry] profile matrix the
// batched walks fill.
func makeProfMatrix(nTargets, nHW int) [][]profile.Profile {
	prof := make([][]profile.Profile, nTargets)
	for ti := range prof {
		prof[ti] = make([]profile.Profile, nHW)
	}
	return prof
}

// replayGroup prices one (target, line-size group) unit: one batched
// stream walk fills the group's prof slots for the target.
func replayGroup(tr *trace.Trace, target gopim.Target, g hwGroup, hws []profile.Hardware, prof []profile.Profile) {
	ghws := make([]profile.Hardware, len(g.idxs))
	for j, hi := range g.idxs {
		ghws[j] = hws[hi]
	}
	res := tr.ReplayBatch(ghws)
	for j, hi := range g.idxs {
		prof[hi] = core.SelectPhases(res[j].Profile, res[j].Phases, target.Phases)
	}
}

// ExploreCtx is Explore under a cancellation context: the trace-recording
// and batched-replay fan-outs check ctx before each unit of work, so a
// cancelled sweep (a pimsimd job whose client went away) stops in bounded
// time. A cancelled sweep returns ctx's error and no result; a sweep that
// completes is bit-identical to Explore.
func ExploreCtx(ctx context.Context, o Options, x ExploreOptions) (*ExploreResult, error) {
	points, err := explorePoints(x)
	if err != nil {
		return nil, err
	}

	targets := gopim.Targets(o.Scale)
	tc := o.Traces
	if tc == nil {
		// The sweep's whole economy is capture-once/replay-many: a private
		// cache still executes each kernel once within this call.
		tc = trace.NewCache()
	}

	workloads, wTargets := exploreWorkloads(targets)

	// Record (or load) each target's trace exactly once, in parallel. A
	// cancelled unit records nothing; the post-fan-out ctx check bails
	// before any nil trace is replayed.
	traces := par.Map(o.workers(), len(targets), func(i int) *trace.Trace {
		if ctx.Err() != nil {
			return nil
		}
		return tc.TraceFor(targets[i].Kernel)
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Dedup geometries in first-occurrence order and group them by line
	// size: each group shares one compiled program and one batched walk.
	hws, pointHW := dedupGeometries(points)
	groups := lineGroups(hws)

	// Live sweep progress: totals as gauges, completed walks as a counter a
	// -metrics-addr poller watches tick up mid-run.
	o.Obs.Gauge("explore.configs").Set(int64(len(points)))
	o.Obs.Gauge("explore.geometries").Set(int64(len(hws)))
	o.Obs.Gauge("explore.batch_walks_total").Set(int64(len(targets) * len(groups)))
	walksDone := o.Obs.Counter("explore.batch_walks_done")

	// Replay every (target, line-size group) unit: one batched stream walk
	// prices the whole group. Units write disjoint prof slots, so the
	// fan-out is bit-identical at any worker count.
	prof := makeProfMatrix(len(targets), len(hws))
	par.ForEach(o.workers(), len(targets)*len(groups), func(u int) {
		if ctx.Err() != nil {
			return
		}
		ti, gi := u/len(groups), u%len(groups)
		replayGroup(traces[ti], targets[ti], groups[gi], hws, prof[ti])
		walksDone.Add(1)
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	priceSpan := o.Obs.Span("phase.price")
	res := priceSweep(o, x, points, targets, workloads, wTargets, hws, pointHW, len(groups), prof)
	priceSpan.End()
	return res, nil
}

// priceSweep prices every (workload, point) row from the replayed profiles
// and marks each workload's Pareto frontier. Pure arithmetic — it finishes
// in milliseconds, so it runs to completion even under a cancelled ctx
// (the expensive record/replay fan-outs above it are the cancellation
// points).
func priceSweep(o Options, x ExploreOptions, points []DesignPoint, targets []gopim.Target,
	workloads []string, wTargets map[string][]int,
	hws []profile.Hardware, pointHW []int, nGroups int, prof [][]profile.Profile) *ExploreResult {
	ev := o.evaluator()
	// The sweep times all pricing as one span; the evaluator's own per-call
	// phase.price span (paper mode routes through EvaluateProfiles) would
	// double-count inside it.
	ev.Obs = nil

	// Paper mode prices through core.EvaluateProfiles — the exact paper
	// pipeline on the batch-replayed profiles — so its rows reproduce
	// Evaluator.Evaluate bit for bit (the sweep machinery's ground truth).
	var paper []core.Result
	if x.Mode == "paper" {
		paper = make([]core.Result, len(targets))
		for ti, t := range targets {
			paper[ti] = ev.EvaluateProfiles(t,
				prof[ti][pointHW[0]], prof[ti][pointHW[1]], prof[ti][pointHW[2]])
		}
	}

	res := &ExploreResult{
		Mode:       x.Mode,
		Configs:    len(points),
		Geometries: len(hws),
		BatchWalks: len(targets) * nGroups,
		Workloads:  workloads,
	}
	for _, w := range workloads {
		start := len(res.Rows)
		wts := make([]gopim.Target, 0, len(wTargets[w]))
		for _, ti := range wTargets[w] {
			wts = append(wts, targets[ti])
		}
		for pi, p := range points {
			row := ExploreRow{Workload: w, Point: p}
			if x.Mode == "paper" {
				mode := kindMode(p.Kind)
				for _, ti := range wTargets[w] {
					e := paper[ti].ByMode[mode]
					row.EnergyPJ += e.Energy.Total()
					row.Seconds += e.Seconds
				}
				row.AreaMM2 = paperArea(p.Kind, wts)
			} else {
				eng := p.engine()
				for _, ti := range wTargets[w] {
					e, s := pricePoint(ev, p, eng, prof[ti][pointHW[pi]])
					row.EnergyPJ += e
					row.Seconds += s
				}
				row.AreaMM2 = p.areaMM2(wts)
			}
			res.Rows = append(res.Rows, row)
		}
		markPareto(res.Rows[start:])
	}
	return res
}

// pricePoint models one target's profile on one design point. The
// arithmetic mirrors core.EvaluateProfiles per kind, with two sweep
// generalizations: the engine carries the point's knobs, and a PIM-Acc
// point's coherence overhead comes from its own profile (a sweep point is
// a single design, with no companion PIM-core run to borrow it from; at
// the paper geometry the difference is nil — use paper mode for exact
// paper numbers). Accelerator op energy derives from the efficiency knob:
// Eff is the ops-per-joule advantage over the CPU core, the paper's "20x"
// (§3.1).
func pricePoint(ev *core.Evaluator, p DesignPoint, eng timing.Engine, prof profile.Profile) (energyPJ, seconds float64) {
	switch p.Kind {
	case KindCPU:
		sec := eng.Seconds(prof)
		return ev.CPUEnergy(prof, sec).Total(), sec
	case KindCore:
		coh := ev.Coherence.Overhead(prof)
		sec := eng.Seconds(prof) + coh.Latency
		return ev.PIMCoreEnergy(prof, sec, coh).Total(), sec
	default:
		coh := ev.Coherence.Overhead(prof)
		sec := eng.Seconds(prof) + coh.Latency
		evAcc := *ev
		evAcc.Params.PIMAccOp = evAcc.Params.CPUInstr / p.Eff
		return evAcc.PIMAccEnergy(prof, sec, coh).Total(), sec
	}
}

// kindMode maps a design-point kind to its core.Mode.
func kindMode(kind string) core.Mode {
	switch kind {
	case KindCPU:
		return core.CPUOnly
	case KindCore:
		return core.PIMCore
	default:
		return core.PIMAcc
	}
}

// paperArea returns the paper's reported PIM areas for a workload: four
// PIM cores (§3.3), or the sum of the targets' accelerator areas (§§4–7).
func paperArea(kind string, targets []gopim.Target) float64 {
	switch kind {
	case KindCPU:
		return 0
	case KindCore:
		return 4 * gopim.PIMCoreArea
	default:
		a := 0.0
		for _, t := range targets {
			a += t.AccArea
		}
		return a
	}
}

// markPareto flags the rows on the (energy, time, area) Pareto frontier:
// rows no other row beats on one objective without losing on another.
// Designs with exactly equal outcomes (knob axes that don't bind, e.g.
// bandwidth on a compute-bound workload) are represented by their
// lowest-ID member only, so the frontier lists distinct outcomes.
func markPareto(rows []ExploreRow) {
	for i := range rows {
		dominated := false
		for j := range rows {
			if i == j {
				continue
			}
			if dominates(rows[j], rows[i]) || (j < i && sameOutcome(rows[j], rows[i])) {
				dominated = true
				break
			}
		}
		rows[i].Pareto = !dominated
	}
}

// sameOutcome reports exact equality on every objective.
func sameOutcome(a, b ExploreRow) bool {
	return a.EnergyPJ == b.EnergyPJ && a.Seconds == b.Seconds && a.AreaMM2 == b.AreaMM2
}

// dominates reports whether a is at least as good as b on every objective
// and strictly better on at least one.
func dominates(a, b ExploreRow) bool {
	if a.EnergyPJ > b.EnergyPJ || a.Seconds > b.Seconds || a.AreaMM2 > b.AreaMM2 {
		return false
	}
	return a.EnergyPJ < b.EnergyPJ || a.Seconds < b.Seconds || a.AreaMM2 < b.AreaMM2
}

// sizeStr renders a power-of-two byte count compactly (64K, 2M).
func sizeStr(bytes int) string {
	if bytes >= 1<<20 && bytes%(1<<20) == 0 {
		return fmt.Sprintf("%dM", bytes>>20)
	}
	return fmt.Sprintf("%dK", bytes>>10)
}

// geometry renders the point's cache geometry for tables.
func (p DesignPoint) geometry() string {
	switch p.Kind {
	case KindCPU:
		return fmt.Sprintf("L1 %s/%d L2 %s/%d", sizeStr(p.L1Size), p.L1Ways, sizeStr(p.L2Size), p.L2Ways)
	case KindCore:
		return fmt.Sprintf("L1 %s/%d", sizeStr(p.L1Size), p.L1Ways)
	default:
		return fmt.Sprintf("buf %s/%d", sizeStr(p.L1Size), p.L1Ways)
	}
}

// RenderExplore writes a sweep result as a text report (per-workload
// Pareto frontiers), CSV (every row, with a pareto column) or JSON (the
// full ExploreResult). Output is deterministic for a given result.
func RenderExplore(w io.Writer, r *ExploreResult, format string) error {
	switch format {
	case "text":
		return renderExploreText(w, r)
	case "csv":
		return renderExploreCSV(w, r)
	case "json":
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(r)
	default:
		return fmt.Errorf("explore: unknown format %q (want text, csv or json)", format)
	}
}

func renderExploreText(w io.Writer, r *ExploreResult) error {
	if _, err := fmt.Fprintf(w, "explore (%s): %d design points over %d cache geometries, %d batched trace walks\n",
		r.Mode, r.Configs, r.Geometries, r.BatchWalks); err != nil {
		return err
	}
	for _, wl := range r.Workloads {
		var rows []ExploreRow
		for _, row := range r.Rows {
			if row.Workload == wl && row.Pareto {
				rows = append(rows, row)
			}
		}
		fmt.Fprintf(w, "\n%s: %d Pareto-optimal designs\n", wl, len(rows))
		tw := tab(w)
		fmt.Fprintln(tw, "id\tkind\tgeometry\tline\tunits\tipc\teff\tlat(ns)\tbw(GB/s)\tenergy(mJ)\ttime(ms)\tarea(mm2)")
		for _, row := range rows {
			p := row.Point
			eff := "-"
			if p.Kind == KindAcc {
				eff = fmt.Sprintf("%gx", p.Eff)
			}
			fmt.Fprintf(tw, "%d\t%s\t%s\t%d\t%d\t%g\t%s\t%g\t%g\t%.3f\t%.3f\t%.3f\n",
				p.ID, p.Kind, p.geometry(), p.LineSize, p.Units, p.IPC, eff,
				p.MemLatencyNS, p.BandwidthGBs,
				row.EnergyPJ*1e-9, row.Seconds*1e3, row.AreaMM2)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	return nil
}

func renderExploreCSV(w io.Writer, r *ExploreResult) error {
	if _, err := fmt.Fprintln(w, "workload,id,kind,l1_size,l1_ways,l2_size,l2_ways,line,units,ipc,eff,lat_ns,bw_gbs,energy_mj,time_ms,area_mm2,pareto"); err != nil {
		return err
	}
	for _, row := range r.Rows {
		p := row.Point
		if _, err := fmt.Fprintf(w, "%s,%d,%s,%d,%d,%d,%d,%d,%d,%g,%g,%g,%g,%.6f,%.6f,%.4f,%t\n",
			row.Workload, p.ID, p.Kind, p.L1Size, p.L1Ways, p.L2Size, p.L2Ways, p.LineSize,
			p.Units, p.IPC, p.Eff, p.MemLatencyNS, p.BandwidthGBs,
			row.EnergyPJ*1e-9, row.Seconds*1e3, row.AreaMM2, row.Pareto); err != nil {
			return err
		}
	}
	return nil
}
