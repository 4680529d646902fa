package serve

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"

	"gopim"
	"gopim/experiments"
)

// JobSpec is one client request: an experiment sweep (kind "run") or a
// design-space sweep (kind "explore") at a scale. The zero values of the
// optional fields select the CLI defaults, so a spec and its pimsim
// command line describe the same computation — and the job's result bytes
// are gated identical to that command's stdout.
type JobSpec struct {
	// Kind is "run" (paper experiments) or "explore" (design-space sweep).
	Kind string `json:"kind"`
	// Scale is "quick" (default) or "standard".
	Scale string `json:"scale,omitempty"`
	// Experiments lists run-job experiment names (empty = all, in sorted
	// order — exactly `pimsim run all`).
	Experiments []string `json:"experiments,omitempty"`
	// Mode is the explore sweep mode: grid (default), random, or paper.
	Mode string `json:"mode,omitempty"`
	// N and Seed parameterize explore -mode random.
	N    int   `json:"n,omitempty"`
	Seed int64 `json:"seed,omitempty"`
	// Format is the explore output format: text (default), csv, or json.
	Format string `json:"format,omitempty"`
	// Tenant is an optional client label. It never influences results —
	// identical specs from different tenants coalesce onto one
	// computation; the label only shows up in job status output.
	Tenant string `json:"tenant,omitempty"`
}

// normalize validates the spec and fills defaults in place.
func (sp *JobSpec) normalize() error {
	switch sp.Kind {
	case "run", "explore":
	case "":
		return fmt.Errorf("spec: missing kind (want run or explore)")
	default:
		return fmt.Errorf("spec: unknown kind %q (want run or explore)", sp.Kind)
	}
	switch sp.Scale {
	case "":
		sp.Scale = "quick"
	case "quick", "standard":
	default:
		return fmt.Errorf("spec: unknown scale %q (want quick or standard)", sp.Scale)
	}
	if sp.Kind == "run" {
		if len(sp.Experiments) == 0 {
			sp.Experiments = experiments.Names()
		}
		for _, name := range sp.Experiments {
			if _, ok := experiments.RunnerFor(name); !ok {
				return fmt.Errorf("spec: unknown experiment %q (known: %s)",
					name, strings.Join(experiments.Names(), ", "))
			}
		}
		return nil
	}
	switch sp.Mode {
	case "":
		sp.Mode = "grid"
	case "grid", "paper":
	case "random":
		if sp.N <= 0 {
			return fmt.Errorf("spec: explore random mode needs n > 0 (got %d)", sp.N)
		}
	default:
		return fmt.Errorf("spec: unknown explore mode %q (want grid, random or paper)", sp.Mode)
	}
	switch sp.Format {
	case "":
		sp.Format = "text"
	case "text", "csv", "json":
	default:
		return fmt.Errorf("spec: unknown explore format %q (want text, csv or json)", sp.Format)
	}
	return nil
}

// scale returns the spec's gopim.Scale (normalize ran first).
func (sp JobSpec) scale() gopim.Scale {
	if sp.Scale == "standard" {
		return gopim.Standard
	}
	return gopim.Quick
}

// cell is one unit of coalescable work: a cache key identifying the
// computation and the function producing its bytes. Identical cells from
// different jobs — different tenants — share one computation through the
// server's memo, so the cell key must capture everything that can change
// the bytes: kind, scale, and the experiment or sweep parameters. Worker
// counts are deliberately excluded: results are bit-identical across them
// (gated in scripts/check.sh).
type cell struct {
	name    string // chunk label in job results
	key     string
	compute func(context.Context) ([]byte, error)
}

// cells expands a normalized spec into its work units: one cell per
// experiment for run jobs (so two jobs overlapping on fig1 share fig1's
// computation even if the rest of their sweeps differ), one cell for an
// explore sweep.
func (s *Server) cells(sp JobSpec) []cell {
	if sp.Kind == "run" {
		out := make([]cell, len(sp.Experiments))
		for i, name := range sp.Experiments {
			out[i] = cell{
				name:    name,
				key:     "run|" + sp.Scale + "|" + name,
				compute: s.runCellCompute(name, sp),
			}
		}
		return out
	}
	key := fmt.Sprintf("explore|%s|%s|n=%d|seed=%d|fmt=%s", sp.Scale, sp.Mode, sp.N, sp.Seed, sp.Format)
	return []cell{{name: "explore", key: key, compute: s.exploreCellCompute(sp)}}
}

// options builds the experiment options for one cell computation: the
// server's shared trace cache (the cross-request warm state), its worker
// bound, and its metrics registry.
func (s *Server) options(sp JobSpec) experiments.Options {
	return experiments.Options{
		Scale:   sp.scale(),
		Workers: s.cfg.Workers,
		Traces:  s.traces,
		Obs:     s.reg,
	}
}

// runCellCompute renders one experiment exactly the way `pimsim run`
// prints it: a ==== name ==== header, the table, a trailing blank line.
// Concatenating a job's chunks therefore reproduces the CLI's stdout
// byte for byte (the smoke gate in scripts/check.sh diffs them).
func (s *Server) runCellCompute(name string, sp JobSpec) func(context.Context) ([]byte, error) {
	return func(ctx context.Context) ([]byte, error) {
		res, err := experiments.RunNamedCtx(ctx, s.options(sp), []string{name})
		if err != nil {
			return nil, err
		}
		r := res[0]
		if r.Err != nil {
			return nil, fmt.Errorf("%s: %w", name, r.Err)
		}
		var buf bytes.Buffer
		fmt.Fprintf(&buf, "==== %s ====\n", name)
		if err := experiments.Render(&buf, name, r.Data); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintln(&buf)
		return buf.Bytes(), nil
	}
}

// exploreCellCompute runs a design-space sweep and renders it exactly
// like `pimsim explore` stdout.
func (s *Server) exploreCellCompute(sp JobSpec) func(context.Context) ([]byte, error) {
	return func(ctx context.Context) ([]byte, error) {
		res, err := experiments.ExploreCtx(ctx, s.options(sp),
			experiments.ExploreOptions{Mode: sp.Mode, N: sp.N, Seed: sp.Seed})
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := experiments.RenderExplore(&buf, res, sp.Format); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
}

// JobState is a job's lifecycle position.
type JobState string

// Job lifecycle: Queued -> Running -> one of Done, Failed, Canceled.
const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// Chunk is one completed unit of a job's output, in CLI order.
type Chunk struct {
	Seq    int    `json:"seq"`
	Name   string `json:"name"`
	Output string `json:"output"`
}

// Job is one admitted request working through the server.
type Job struct {
	ID     string  `json:"id"`
	Spec   JobSpec `json:"spec"`
	cells  []cell
	ctx    context.Context
	cancel context.CancelFunc

	mu      sync.Mutex
	state   JobState
	chunks  []Chunk
	err     error
	updated chan struct{} // closed-and-renewed on every state/chunk change
	done    chan struct{} // closed once the job reaches a terminal state
}

// newJob builds an admitted job under the server's root context.
func newJob(root context.Context, id string, sp JobSpec, cells []cell) *Job {
	ctx, cancel := context.WithCancel(root)
	return &Job{
		ID:      id,
		Spec:    sp,
		cells:   cells,
		ctx:     ctx,
		cancel:  cancel,
		state:   StateQueued,
		updated: make(chan struct{}),
		done:    make(chan struct{}),
	}
}

// broadcastLocked renews the update channel; the caller closes the
// returned previous channel after unlocking (a channel op under the lock
// would convoy readers — and the lockheld analyzer forbids it).
func (j *Job) broadcastLocked() chan struct{} {
	prev := j.updated
	j.updated = make(chan struct{})
	return prev
}

// setState moves the job to a non-terminal state.
func (j *Job) setState(st JobState) {
	j.mu.Lock()
	j.state = st
	prev := j.broadcastLocked()
	j.mu.Unlock()
	close(prev)
}

// appendChunk publishes one completed cell's output.
func (j *Job) appendChunk(name string, out []byte) {
	j.mu.Lock()
	j.chunks = append(j.chunks, Chunk{Seq: len(j.chunks), Name: name, Output: string(out)})
	prev := j.broadcastLocked()
	j.mu.Unlock()
	close(prev)
}

// finish moves the job to a terminal state and releases its context.
func (j *Job) finish(st JobState, err error) {
	j.mu.Lock()
	j.state = st
	j.err = err
	prev := j.broadcastLocked()
	j.mu.Unlock()
	close(prev)
	close(j.done)
	j.cancel()
}

// finishFromMemo finishes the job from its cells' memoized results, the
// way a runner would: chunks in spec order, stopping at the first
// memoized error, which fails the job. It returns how many cells it
// answered and whether the job failed.
func (j *Job) finishFromMemo(results []memoResult) (answered int, failed bool) {
	for i, r := range results {
		if r.err != nil {
			j.finish(StateFailed, r.err)
			return i + 1, true
		}
		j.appendChunk(j.cells[i].name, r.out)
	}
	j.finish(StateDone, nil)
	return len(results), false
}

// Cancel asks the job to stop; the runner observes the context and
// finishes it as canceled. Canceling a finished job is a no-op.
func (j *Job) Cancel() { j.cancel() }

// snapshot returns the job's current state under its lock: state, chunks
// completed so far, the terminal error, and the channel to wait on for
// the next change.
func (j *Job) snapshot(fromSeq int) (JobState, []Chunk, error, chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var newChunks []Chunk
	if fromSeq < len(j.chunks) {
		newChunks = append(newChunks, j.chunks[fromSeq:]...)
	}
	return j.state, newChunks, j.err, j.updated
}

// Status is a job's poll/list view.
type Status struct {
	ID          string   `json:"id"`
	State       JobState `json:"state"`
	Kind        string   `json:"kind"`
	Scale       string   `json:"scale"`
	Tenant      string   `json:"tenant,omitempty"`
	ChunksDone  int      `json:"chunks_done"`
	ChunksTotal int      `json:"chunks_total"`
	Error       string   `json:"error,omitempty"`
}

// Status returns the job's current poll view.
func (j *Job) Status() Status {
	st, chunks, err, _ := j.snapshot(0)
	s := Status{
		ID:          j.ID,
		State:       st,
		Kind:        j.Spec.Kind,
		Scale:       j.Spec.Scale,
		Tenant:      j.Spec.Tenant,
		ChunksDone:  len(chunks),
		ChunksTotal: len(j.cells),
	}
	if err != nil {
		s.Error = err.Error()
	}
	return s
}

// Result returns the job's concatenated output bytes once it is done.
// The bytes are the job's contract: identical to the matching pimsim
// command's stdout for the same spec.
func (j *Job) Result() ([]byte, error) {
	st, chunks, err, _ := j.snapshot(0)
	switch st {
	case StateDone:
		var buf bytes.Buffer
		for _, c := range chunks {
			buf.WriteString(c.Output)
		}
		return buf.Bytes(), nil
	case StateFailed, StateCanceled:
		if err == nil {
			err = fmt.Errorf("job %s %s", j.ID, st)
		}
		return nil, err
	default:
		return nil, fmt.Errorf("job %s still %s", j.ID, st)
	}
}

// Wait blocks until the job reaches a terminal state or ctx is done.
func (j *Job) Wait(ctx context.Context) error {
	select {
	case <-j.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
