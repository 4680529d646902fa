// Command perfbench measures the gopim reproduction end to end and layer by
// layer. One run executes one workload at quick scale for a fixed window,
// checks every output, and prints one JSON result line:
//
//	perfbench --workload paper-regen|serve-explore --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics (set-up CPU
// time, median op CPU time, ops per CPU-second, peak memory, store size). With --trace 1
// the run interleaves untraced and traced ops, walks every layer once on
// the nine paper targets, and reports the per-layer ledger instead.
// --smoke runs two rounds of ops regardless of --seconds, with every check
// on. run.py builds this binary and pimsim and passes --pimsim and --work;
// README.md describes the workloads, metrics and checks.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(*bench) (*outcome, error){
	"paper-regen":   paperRegen,
	"serve-explore": serveExplore,
}

// bench is one run's configuration and the checks it has failed so far.
type bench struct {
	seed   int64
	window time.Duration
	traced bool
	smoke  bool
	pimsim string
	work   string // this workload's scratch directory
	tr     *tracer

	problems []string
}

// fail records a failed output check: the run reports correct=false.
func (b *bench) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	fmt.Fprintf(os.Stderr, "perfbench: CHECK FAILED: %s\n", msg)
	b.problems = append(b.problems, msg)
}

// windowClosed reports whether an op loop that has run n rounds since
// start stops: after two rounds in smoke mode, otherwise once the window
// has passed (at least one round always runs).
func (b *bench) windowClosed(start time.Time, n int) bool {
	if b.smoke {
		return n == 2
	}
	return n > 0 && time.Since(start) >= b.window
}

// logf writes a progress line to stderr; stdout carries only the result.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// outcome is what a workload run measured.
type outcome struct {
	attempted, failed int
	setupS            float64   // set-up CPU seconds
	lat               []float64 // untraced ops' CPU seconds
	tracedLat         []float64 // traced ops' CPU seconds (traced runs only)
	peakRSSMB         float64
	storeMB           float64

	// Traced runs: per-layer values measured on the workload's own ops,
	// and the ledger totals over the traced ops.
	layers      map[string]float64
	attributedS float64
	opWallS     float64
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload: paper-regen or serve-explore")
	seed := flag.Int64("seed", 1, "workload seed (serve-explore derives its sweep specs from it)")
	seconds := flag.Int("seconds", 24, "timed window per run, in seconds")
	traceN := flag.Int("trace", 0, "1 = traced run reporting the per-layer ledger")
	smoke := flag.Bool("smoke", false, "run two rounds of ops regardless of -seconds, every check on")
	pimsim := flag.String("pimsim", "", "pimsim binary")
	work := flag.String("work", "", "scratch directory for trace stores, reports and spans")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *pimsim == "" || *work == "" || *seconds < 1 || (*traceN != 0 && *traceN != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload paper-regen|serve-explore --seed N --seconds S --trace 0|1 --pimsim BIN --work DIR")
		os.Exit(2)
	}
	res, err := runWorkload(run, &bench{
		seed:   *seed,
		window: time.Duration(*seconds) * time.Second,
		traced: *traceN == 1,
		smoke:  *smoke,
		pimsim: *pimsim,
		work:   filepath.Join(*work, *workload),
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runWorkload prepares a clean scratch directory, runs the workload and
// assembles the result line.
func runWorkload(run func(*bench) (*outcome, error), b *bench) (*result, error) {
	if err := os.RemoveAll(b.work); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		return nil, err
	}
	if b.traced {
		b.tr = newTracer()
	}
	o, err := run(b)
	if err != nil {
		return nil, err
	}
	if o.attempted < 1 {
		return nil, fmt.Errorf("no op attempted")
	}
	res := &result{
		Correct:   len(b.problems) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
	}
	if !b.traced {
		res.Metrics = endToEnd(o)
		return res, nil
	}
	m, err := perLayer(b, o)
	if err != nil {
		return nil, err
	}
	res.Metrics = m
	if err := b.tr.write(filepath.Join(b.work, fmt.Sprintf("spans-seed%d.json", b.seed))); err != nil {
		return nil, err
	}
	return res, nil
}

// endToEnd assembles the untraced run's metrics.
func endToEnd(o *outcome) map[string]metric {
	var cpu float64
	for _, d := range o.lat {
		cpu += d
	}
	perCPU := 0.0
	if cpu > 0 {
		perCPU = float64(len(o.lat)) / cpu
	}
	return map[string]metric{
		"setup_s":       {o.setupS, "s"},
		"op_cpu_p50_s":  {median(o.lat), "s"},
		"ops_per_cpu_s": {perCPU, "1/s"},
		"peak_rss_mb":   {o.peakRSSMB, "MB"},
		"store_mb":      {o.storeMB, "MB"},
	}
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mb converts bytes to MiB.
func mb(n int64) float64 { return float64(n) / (1 << 20) }
