// Command pimsim regenerates the paper's tables and figures and prints
// them as text tables.
//
// Usage:
//
//	pimsim [-scale quick|standard] [-workers N] [experiment ...]
//	pimsim [-scale quick|standard] [-workers N] run [all | experiment ...]
//	pimsim [flags] explore [-mode grid|random|paper] [-n N] [-seed S] [-format text|csv|json]
//	pimsim trace pack
//	pimsim trace verify [-prune]
//	pimsim [flags] run all -stats -report r.json -metrics-addr host:port
//
// With no arguments it runs every experiment serially. The `run`
// subcommand computes the selected experiments (or all of them)
// concurrently on up to N workers and then prints the reports in the same
// order and format as the serial path — the output is byte-identical.
// Experiment names are the figure/table IDs from DESIGN.md: table1, fig1,
// fig2, fig4, fig6, fig7, fig10, fig11, fig12, fig15, fig16, fig18,
// fig19, fig20, fig21, areas, headline, ablation, battery, targets,
// tabswitch, plan, pageload.
//
// The `explore` subcommand sweeps the hardware design space — cache
// geometry, line size, memory timing, PIM engine width, accelerator
// efficiency — pricing every design from batch-replayed kernel traces
// (each kernel executes, or loads from the store, exactly once) and
// printing each workload's Pareto frontier over energy, runtime and PIM
// logic area. -mode grid sweeps the full 1026-point factorial grid,
// -mode random samples -n points from the same axes at -seed, and -mode
// paper prices the paper's three design points through the exact paper
// pipeline (the sweep's equivalence anchor).
//
// Recorded kernel traces persist across processes in a content-addressed
// store (default: $GOPIM_TRACE_DIR, else <user cache dir>/gopim/traces;
// -tracestore selects another directory or `off`). `trace pack` pre-warms
// the store by running every keyed kernel once; `trace verify` checks
// every entry's format version and integrity hash (and with -prune
// deletes defective entries and stale-version directories). A corrupt or
// stale entry is always treated as a cache miss and re-recorded — output
// is byte-identical with the store on, off, or damaged.
//
// Observability (run and explore, accepted globally or after the
// subcommand): -stats prints a run breakdown to stderr — phase timing
// histograms (record, compile, replay, store I/O, pricing), trace cache
// and store hit rates, worker utilization, the slowest experiments;
// -report writes the same data plus derived headline ratios as a
// versioned JSON run report (scripts/checkreport validates it);
// -metrics-addr serves live JSON snapshots over HTTP at /metrics and
// /healthz while the run is in flight. None of it touches stdout: output
// stays byte-identical with observability on or off (gated in
// scripts/check.sh, enforced statically by the obsout analyzer).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"gopim"
	"gopim/experiments"
	"gopim/internal/obs"
	"gopim/internal/par"
	"gopim/internal/trace"
)

// obsConfig carries the observability flags (-stats, -report,
// -metrics-addr). They are accepted both globally and after the run/explore
// subcommands — `pimsim run all -stats -report r.json` is the documented
// invocation — with the post-subcommand value winning. All observability
// output goes to stderr, the report file, or the HTTP listener; stdout is
// byte-identical with these flags on or off (gated in scripts/check.sh).
type obsConfig struct {
	stats   bool   // print a human-readable run breakdown to stderr
	report  string // write a versioned JSON run report to this path
	metrics string // serve live JSON snapshots on this host:port
}

func (oc obsConfig) enabled() bool {
	return oc.stats || oc.report != "" || oc.metrics != ""
}

// register adds the observability flags to fs with oc as defaults, so a
// subcommand FlagSet inherits the global values.
func (oc *obsConfig) register(fs *flag.FlagSet) {
	fs.BoolVar(&oc.stats, "stats", oc.stats, "print a run breakdown (phase timings, cache/store/worker metrics) to stderr")
	fs.StringVar(&oc.report, "report", oc.report, "write a versioned JSON run report to this `file`")
	fs.StringVar(&oc.metrics, "metrics-addr", oc.metrics, "serve live metrics snapshots as JSON on this `host:port` (/metrics, /healthz)")
}

// setupObs builds the metrics registry when any observability flag is set
// (nil otherwise — the no-op path), threads it through the engine layers,
// and starts the metrics listener. Callers must pair it with finishObs.
func setupObs(oc obsConfig, opts *experiments.Options) (*obs.Registry, *obs.Server) {
	if !oc.enabled() {
		return nil, nil
	}
	reg := obs.NewRegistry()
	opts.Obs = reg
	par.SetObs(reg)
	if opts.Traces != nil {
		opts.Traces.Obs = reg
		reg.AddSource(obs.PrefixTraceCache, opts.Traces)
		if opts.Traces.Store != nil {
			opts.Traces.Store.Obs = reg
			reg.AddSource(obs.PrefixTraceStore, opts.Traces.Store)
		}
	}
	var srv *obs.Server
	if oc.metrics != "" {
		var err error
		srv, err = obs.Serve(oc.metrics, reg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pimsim: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "pimsim: serving metrics on http://%s/metrics\n", srv.Addr())
	}
	return reg, srv
}

// finishObs emits the end-of-run report (stderr text and/or JSON file) and
// shuts the metrics listener down — after the report, so a live poller can
// still grab the final state. No-op when setupObs returned nil.
func finishObs(reg *obs.Registry, srv *obs.Server, oc obsConfig, meta obs.RunMeta, wallNS int64, times []obs.ExperimentTime) {
	if reg == nil {
		return
	}
	rep := obs.BuildReport(reg, meta, wallNS, times)
	if oc.stats {
		rep.WriteText(os.Stderr)
	}
	var reportErr error
	if oc.report != "" {
		reportErr = rep.WriteFile(oc.report)
	}
	// Shut the listener down before any error exit: bailing out above the
	// Close used to strand the serve goroutine and its handlers.
	srv.Close()
	par.SetObs(nil)
	if reportErr != nil {
		fmt.Fprintf(os.Stderr, "pimsim: %v\n", reportErr)
		os.Exit(1)
	}
}

// parseInterleaved parses args with fs, allowing flags and positionals to
// interleave (stock flag parsing stops at the first positional): each round
// consumes leading flags, then shifts one positional. Returns the
// positionals in order.
func parseInterleaved(fs *flag.FlagSet, args []string) []string {
	var pos []string
	for {
		fs.Parse(args)
		args = fs.Args()
		if len(args) == 0 {
			return pos
		}
		pos = append(pos, args[0])
		args = args[1:]
	}
}

func main() {
	scaleFlag := flag.String("scale", "quick", "input scale: quick or standard")
	workersFlag := flag.Int("workers", 0, "max concurrent workers (0 = GOMAXPROCS, 1 = serial)")
	traceFlag := flag.String("tracecache", "on", "kernel trace cache: on (capture once, replay per config) or off (direct execution)")
	limitFlag := flag.Int64("tracecache-limit", -1, "in-memory trace cache bound in bytes (0 = unlimited; -1 = default: unlimited for runs, 512 MiB for explore)")
	storeFlag := flag.String("tracestore", "auto", "persistent trace store directory: auto ($GOPIM_TRACE_DIR or the user cache dir), off, or a path")
	pruneFlag := flag.Bool("prune", false, "with `trace verify`: delete corrupt entries and stale-version directories")
	var oc obsConfig
	oc.register(flag.CommandLine)
	flag.Usage = usage
	flag.Parse()

	var scale gopim.Scale
	switch *scaleFlag {
	case "quick":
		scale = gopim.Quick
	case "standard":
		scale = gopim.Standard
	default:
		fmt.Fprintf(os.Stderr, "pimsim: unknown scale %q\n", *scaleFlag)
		os.Exit(2)
	}
	opts := experiments.Options{Scale: scale, Workers: *workersFlag}

	names := flag.Args()
	if len(names) > 0 && names[0] == "trace" {
		traceCommand(names[1:], opts, *storeFlag, *pruneFlag)
		return
	}

	if len(names) > 0 && names[0] == "explore" {
		exploreCommand(names[1:], opts, *storeFlag, *limitFlag, oc)
		return
	}

	// The observability flags are also accepted after `run` (and between
	// experiment names): re-parse the remaining arguments interleaved, with
	// the global values as defaults.
	runFS := flag.NewFlagSet("run", flag.ExitOnError)
	oc.register(runFS)
	runFS.Usage = usage
	names = parseInterleaved(runFS, names)

	switch *traceFlag {
	case "on":
		opts.Traces = trace.NewCache()
		opts.Traces.Store = openStore(*storeFlag, false)
		if *limitFlag > 0 {
			opts.Traces.Limit = *limitFlag
		}
	case "off":
		// Direct execution: the reference path, byte-identical by design.
	default:
		fmt.Fprintf(os.Stderr, "pimsim: unknown tracecache mode %q (want on or off)\n", *traceFlag)
		os.Exit(2)
	}

	parallel := false
	if len(names) > 0 && names[0] == "run" {
		parallel = true
		names = names[1:]
		if len(names) == 1 && names[0] == "all" {
			names = nil
		}
	}
	if len(names) == 0 {
		names = experiments.Names()
	}

	reg, srv := setupObs(oc, &opts)
	meta := obs.RunMeta{
		Command: "run",
		Scale:   *scaleFlag,
		Workers: par.Workers(opts.Workers),
	}
	runStart := obs.Now()
	var times []obs.ExperimentTime

	if parallel {
		results, err := experiments.RunNamed(opts, names)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pimsim: %v (known: %s)\n", err, strings.Join(experiments.Names(), ", "))
			os.Exit(2)
		}
		for _, r := range results {
			fmt.Printf("==== %s ====\n", r.Name)
			if r.Err != nil {
				fmt.Fprintf(os.Stderr, "pimsim: %s: %v\n", r.Name, r.Err)
				os.Exit(1)
			}
			if err := experiments.Render(os.Stdout, r.Name, r.Data); err != nil {
				fmt.Fprintf(os.Stderr, "pimsim: %s: %v\n", r.Name, err)
				os.Exit(1)
			}
			fmt.Println()
		}
		if reg != nil {
			for _, r := range results {
				times = append(times, obs.ExperimentTime{Name: r.Name, WallNS: r.WallNS})
			}
		}
		waitStore(opts)
		finishObs(reg, srv, oc, meta, obs.Since(runStart), times)
		return
	}

	for _, name := range names {
		runner, ok := experiments.RunnerFor(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "pimsim: unknown experiment %q (known: %s)\n",
				name, strings.Join(experiments.Names(), ", "))
			os.Exit(2)
		}
		fmt.Printf("==== %s ====\n", name)
		start := obs.Now()
		data, err := runner.Compute(opts)
		if reg != nil {
			times = append(times, obs.ExperimentTime{Name: name, WallNS: obs.Since(start)})
		}
		if err == nil {
			err = runner.Render(os.Stdout, data)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "pimsim: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
	waitStore(opts)
	finishObs(reg, srv, oc, meta, obs.Since(runStart), times)
}

// waitStore lets pending asynchronous store writes land before exit, so a
// run's recordings are never lost to a fast shutdown.
func waitStore(opts experiments.Options) {
	if opts.Traces != nil {
		opts.Traces.Store.Wait()
	}
}

// storeDir resolves the -tracestore flag to a directory, or ok == false
// when the store is disabled (explicitly, or because auto resolution found
// no usable cache directory).
func storeDir(flagVal string) (string, bool) {
	switch flagVal {
	case "off":
		return "", false
	case "auto":
		if dir := os.Getenv("GOPIM_TRACE_DIR"); dir != "" {
			return dir, true
		}
		base, err := os.UserCacheDir()
		if err != nil {
			return "", false
		}
		return filepath.Join(base, "gopim", "traces"), true
	default:
		return flagVal, true
	}
}

// openStore opens the resolved store, or returns nil when disabled. An
// unusable auto-resolved directory degrades to no store (the cache is an
// optimization); an explicitly requested one is an error — unless require
// is set, in which case a disabled store is an error too (the trace
// subcommands are meaningless without one).
func openStore(flagVal string, require bool) *trace.Store {
	dir, ok := storeDir(flagVal)
	if !ok {
		if require {
			fmt.Fprintln(os.Stderr, "pimsim: this command needs a trace store, but -tracestore is off (or no cache directory was found)")
			os.Exit(2)
		}
		return nil
	}
	st, err := trace.OpenStore(dir)
	if err != nil {
		if require || flagVal != "auto" {
			fmt.Fprintf(os.Stderr, "pimsim: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "pimsim: trace store disabled: %v\n", err)
		return nil
	}
	return st
}

// traceCommand implements `pimsim trace pack` and `pimsim trace verify`.
// The -prune flag is parsed here with a dedicated FlagSet, so it works
// before or after the subcommand name (`trace -prune verify` and
// `trace verify -prune`) as well as globally (`pimsim -prune trace verify`
// — the global value seeds the default).
func traceCommand(args []string, opts experiments.Options, storeFlag string, prune bool) {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	pruneSub := fs.Bool("prune", prune, "with verify: delete corrupt entries and stale-version directories")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "pimsim: usage: pimsim trace pack | pimsim trace verify [-prune]")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	args = fs.Args()
	if len(args) > 1 {
		sub := args[0]
		fs.Parse(args[1:])
		args = append([]string{sub}, fs.Args()...)
	}
	prune = *pruneSub
	if len(args) != 1 {
		fs.Usage()
		os.Exit(2)
	}
	st := openStore(storeFlag, true)
	switch args[0] {
	case "pack":
		c := trace.NewCache()
		c.Store = st
		opts.Traces = c
		if err := experiments.Warm(opts); err != nil {
			fmt.Fprintf(os.Stderr, "pimsim: trace pack: %v\n", err)
			os.Exit(1)
		}
		st.Wait()
		cs, ss := c.Stats(), st.Stats()
		fmt.Printf("trace pack: %d kernels recorded, %d already stored, %d entries written (%d write errors) in %s\n",
			cs.Records, cs.StoreHits, ss.Saves, ss.SaveErrors, st.Dir())
		if ss.SaveErrors > 0 {
			os.Exit(1)
		}
	case "verify":
		rep, err := st.Verify(prune)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pimsim: trace verify: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("trace verify: %d entries ok (%d bytes) in %s\n", rep.OK, rep.Bytes, st.Dir())
		ss := st.Stats()
		fmt.Printf("trace verify: store stats: %d hits, %d misses, %d corrupt, %d saves, %d save errors\n",
			ss.Hits, ss.Misses, ss.Corrupt, ss.Saves, ss.SaveErrors)
		for _, dir := range rep.StaleDirs {
			action := "found"
			if prune {
				action = "pruned"
			}
			fmt.Printf("trace verify: %s stale format-version directory %s\n", action, dir)
		}
		for _, issue := range rep.Issues {
			action := "bad entry"
			if prune {
				action = "pruned bad entry"
			}
			fmt.Printf("trace verify: %s %s: %s\n", action, issue.Path, issue.Reason)
		}
		if len(rep.Issues) > 0 {
			os.Exit(1)
		}
	default:
		fmt.Fprintf(os.Stderr, "pimsim: unknown trace subcommand %q (want pack or verify)\n", args[0])
		os.Exit(2)
	}
}

// exploreCommand implements `pimsim explore`: a design-space sweep priced
// from batch-replayed kernel traces. The trace cache is always on here —
// capture-once/replay-many is the sweep's entire economy — with the
// in-memory bound defaulted to 512 MiB (a sweep touches every kernel, so
// an unbounded cache would peak at the sum of all trace streams).
func exploreCommand(args []string, opts experiments.Options, storeFlag string, limit int64, oc obsConfig) {
	fs := flag.NewFlagSet("explore", flag.ExitOnError)
	mode := fs.String("mode", "grid", "sweep mode: grid (full factorial), random (sample -n points), or paper (the paper's three designs)")
	n := fs.Int("n", 1024, "with -mode random: number of design points to sample")
	seed := fs.Int64("seed", 1, "with -mode random: sampling seed (equal seeds give identical sweeps)")
	format := fs.String("format", "text", "output format: text (Pareto frontiers), csv (every row), or json")
	oc.register(fs)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "pimsim: usage: pimsim [flags] explore [-mode grid|random|paper] [-n N] [-seed S] [-format text|csv|json]")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() > 0 {
		fs.Usage()
		os.Exit(2)
	}

	opts.Traces = trace.NewCache()
	opts.Traces.Store = openStore(storeFlag, false)
	if limit >= 0 {
		opts.Traces.Limit = limit
	} else {
		opts.Traces.Limit = 512 << 20
	}

	reg, srv := setupObs(oc, &opts)
	runStart := obs.Now()

	res, err := experiments.Explore(opts, experiments.ExploreOptions{Mode: *mode, N: *n, Seed: *seed})
	if err != nil {
		fmt.Fprintf(os.Stderr, "pimsim: %v\n", err)
		os.Exit(2)
	}
	if err := experiments.RenderExplore(os.Stdout, res, *format); err != nil {
		fmt.Fprintf(os.Stderr, "pimsim: %v\n", err)
		os.Exit(2)
	}
	waitStore(opts)
	finishObs(reg, srv, oc, obs.RunMeta{
		Command: "explore",
		Scale:   scaleName(opts.Scale),
		Workers: par.Workers(opts.Workers),
		Configs: res.Configs,
	}, obs.Since(runStart), nil)
}

// scaleName renders a scale for run reports.
func scaleName(s gopim.Scale) string {
	if s == gopim.Standard {
		return "standard"
	}
	return "quick"
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: pimsim [flags] [run] [experiment ...]
       pimsim [flags] explore [-mode grid|random|paper] [-n N] [-seed S] [-format text|csv|json]
       pimsim [flags] trace pack     (pre-warm the persistent trace store)
       pimsim [flags] trace verify   (check store integrity; -prune to clean)
observability (stdout stays byte-identical; breakdowns go to stderr):
       pimsim run all -stats -report r.json -metrics-addr host:port
experiments: %s
`, strings.Join(experiments.Names(), ", "))
	flag.PrintDefaults()
}
