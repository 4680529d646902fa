package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// ReportVersion is the run report's schema version. Bump it on any
// incompatible change to Report's shape so downstream consumers (the bench
// harness, CI's checkreport gate) can reject reports they do not
// understand instead of misreading them.
const ReportVersion = 2

// Source prefixes under which the trace-layer components export their
// counters (see Registry.AddSource); the derived metrics below and every
// report consumer key on these.
const (
	PrefixTraceCache = "trace.cache."
	PrefixTraceStore = "trace.store."
)

// ExperimentTime is one experiment's wall time within a run.
type ExperimentTime struct {
	Name   string `json:"name"`
	WallNS int64  `json:"wall_ns"`
}

// RunMeta identifies the run a report describes.
type RunMeta struct {
	Command string `json:"command"` // "run", "explore", "trace pack", ...
	Scale   string `json:"scale"`
	Workers int    `json:"workers"` // resolved worker count
	Configs int    `json:"configs,omitempty"`
}

// Derived is the report's headline ratios, precomputed from the raw
// counters so consumers (CI gates, the bench harness) do not each re-derive
// them — and so the derivations are defined in exactly one place.
type Derived struct {
	// TraceCacheHitRate is memoized-result hits / all profile requests.
	TraceCacheHitRate float64 `json:"trace_cache_hit_rate"`
	// StoreHitRate is store loads served from disk / all store loads.
	StoreHitRate float64 `json:"store_hit_rate"`
	// WorkerUtilization is pool busy time / (busy + idle) across workers.
	WorkerUtilization float64 `json:"worker_utilization"`
	// KernelExecutions counts kernels that actually ran (trace recordings
	// plus unkeyed direct executions) — 0 on a fully warm run, which CI
	// asserts to keep PR 6's "cold ≈ warm" claim continuously true.
	KernelExecutions int64 `json:"kernel_executions"`
}

// Report is the versioned, machine-readable end-of-run record: run
// identity, total and per-experiment wall time, every metric the registry
// holds (including phase-timing histograms and source-exported cache/store
// counters), and the derived headline ratios.
type Report struct {
	Version     int              `json:"version"`
	Meta        RunMeta          `json:"meta"`
	WallNS      int64            `json:"wall_ns"`
	Experiments []ExperimentTime `json:"experiments,omitempty"`
	Metrics     Snapshot         `json:"metrics"`
	Derived     Derived          `json:"derived"`
}

// ratio returns num/den, 0 when den is 0.
func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// BuildReport assembles a report from the registry's current state.
func BuildReport(r *Registry, meta RunMeta, wallNS int64, experiments []ExperimentTime) *Report {
	snap := r.Snapshot()
	c := snap.Counters
	cache := func(name string) int64 { return c[PrefixTraceCache+name] }
	store := func(name string) int64 { return c[PrefixTraceStore+name] }
	return &Report{
		Version:     ReportVersion,
		Meta:        meta,
		WallNS:      wallNS,
		Experiments: experiments,
		Metrics:     snap,
		Derived: Derived{
			TraceCacheHitRate: ratio(cache("hits"), cache("requests")),
			StoreHitRate:      ratio(store("hits"), store("hits")+store("misses")+store("corrupt")),
			WorkerUtilization: ratio(c["par.worker.busy_ns"], c["par.worker.busy_ns"]+c["par.worker.idle_ns"]),
			KernelExecutions:  cache("records") + cache("misses"),
		},
	}
}

// WriteJSON writes the report as indented JSON.
func (rep *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// WriteFile writes the report as JSON to path.
func (rep *Report) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: writing report: %w", err)
	}
	err = rep.WriteJSON(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ms renders nanoseconds as milliseconds with sub-ms precision.
func ms(ns int64) string { return fmt.Sprintf("%.1f ms", float64(ns)/1e6) }

// pct renders a ratio as a percentage.
func pct(r float64) string { return fmt.Sprintf("%.1f%%", r*100) }

// WriteText writes the human-readable -stats breakdown. It must never be
// pointed at os.Stdout (experiment output is byte-gated); the obsout
// analyzer enforces that at every call site.
func (rep *Report) WriteText(w io.Writer) {
	fmt.Fprintf(w, "== pimsim run report (v%d) ==\n", rep.Version)
	fmt.Fprintf(w, "command: %s  scale: %s  workers: %d",
		rep.Meta.Command, rep.Meta.Scale, rep.Meta.Workers)
	if rep.Meta.Configs > 0 {
		fmt.Fprintf(w, "  configs: %d", rep.Meta.Configs)
	}
	fmt.Fprintf(w, "\nwall time: %s\n", ms(rep.WallNS))

	c := rep.Metrics.Counters
	cache := func(name string) int64 { return c[PrefixTraceCache+name] }
	store := func(name string) int64 { return c[PrefixTraceStore+name] }

	if n := len(rep.Metrics.Histograms); n > 0 {
		fmt.Fprintf(w, "phases (%d):\n", n)
		for _, name := range sortedNames(rep.Metrics.Histograms) {
			h := rep.Metrics.Histograms[name]
			fmt.Fprintf(w, "  %-24s n=%-6d total=%-12s mean=%s\n",
				name, h.Count, ms(h.Sum), ms(int64(h.Mean())))
		}
	}
	if cache("requests") > 0 {
		fmt.Fprintf(w, "trace cache: %s hit rate (%d hits / %d requests), %d records, %d replays, %d store hits, %d evictions, %d bytes resident\n",
			pct(rep.Derived.TraceCacheHitRate), cache("hits"), cache("requests"),
			cache("records"), cache("replays"), cache("store_hits"), cache("evictions"),
			cache("mem_bytes"))
	}
	if loads := store("hits") + store("misses") + store("corrupt"); loads > 0 || store("saves") > 0 {
		fmt.Fprintf(w, "trace store: %s hit rate (%d hits, %d misses, %d corrupt), %d saves, %d save errors\n",
			pct(rep.Derived.StoreHitRate), store("hits"), store("misses"), store("corrupt"),
			store("saves"), store("save_errors"))
	}
	if busy := c["par.worker.busy_ns"]; busy > 0 {
		fmt.Fprintf(w, "workers: %s busy (busy %s, idle %s)\n",
			pct(rep.Derived.WorkerUtilization), ms(busy), ms(c["par.worker.idle_ns"]))
	}
	if len(rep.Experiments) > 0 {
		byTime := append([]ExperimentTime(nil), rep.Experiments...)
		sort.Slice(byTime, func(i, j int) bool {
			if byTime[i].WallNS != byTime[j].WallNS {
				return byTime[i].WallNS > byTime[j].WallNS
			}
			return byTime[i].Name < byTime[j].Name
		})
		top := byTime
		if len(top) > 5 {
			top = top[:5]
		}
		parts := make([]string, len(top))
		for i, e := range top {
			parts[i] = fmt.Sprintf("%s %s", e.Name, ms(e.WallNS))
		}
		fmt.Fprintf(w, "experiments: %d computed; slowest: %s\n", len(rep.Experiments), strings.Join(parts, ", "))
	}
	fmt.Fprintf(w, "kernel executions: %d\n", rep.Derived.KernelExecutions)
}
