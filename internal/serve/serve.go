// Package serve is pimsimd's job engine: simulation-as-a-service over the
// gopim experiment and design-space sweep layers. One Server owns one
// shared trace.Cache (optionally backed by a persistent trace.Store), so
// every admitted job — every tenant — replays against the same warm
// kernel traces; above that, a cross-request single-flight memo coalesces
// identical sweep cells from concurrent jobs onto one computation.
//
// Admission is bounded on top of internal/par's worker model: a fixed
// runner pool executes jobs, a bounded queue absorbs bursts, and a full
// queue rejects immediately (HTTP 429 at the API) instead of accepting
// unbounded work. Each job carries a context.Context threaded through
// experiments.RunNamedCtx/ExploreCtx, so cancelling a job — or losing
// interest in a coalesced cell — stops the sweep in bounded time.
//
// The contract that makes coalescing safe is determinism: a job's result
// bytes are identical to the matching `pimsim run`/`pimsim explore`
// stdout for the same spec, regardless of which request actually computed
// them. scripts/check.sh gates that byte identity.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"gopim/internal/obs"
	"gopim/internal/trace"
)

// Errors the API layer maps to HTTP statuses.
var (
	// ErrQueueFull rejects a submission when the admission queue is at
	// capacity (HTTP 429): backpressure instead of unbounded buffering.
	ErrQueueFull = errors.New("serve: job queue full")
	// ErrClosed rejects submissions during and after shutdown (HTTP 503).
	ErrClosed = errors.New("serve: server closed")
	// ErrNoJob reports an unknown job id (HTTP 404).
	ErrNoJob = errors.New("serve: no such job")
)

// Config sizes a Server. Zero values select the defaults.
type Config struct {
	// JobWorkers is the number of concurrent job runners (default 2).
	// Each runner executes one job's cells sequentially, in spec order,
	// so a job's chunks stream in CLI order.
	JobWorkers int
	// Workers bounds each cell computation's internal parallelism
	// (experiments.Options.Workers; default 0 = GOMAXPROCS). The server's
	// total compute budget is roughly JobWorkers x Workers.
	Workers int
	// QueueCap bounds the admission queue (default 16). Submissions
	// beyond running+queued capacity fail with ErrQueueFull.
	QueueCap int
	// MemoLimit bounds completed cells retained for reuse (default 256
	// cells; a full quick run sweep is 23).
	MemoLimit int
	// JobHistory bounds finished jobs retained for polling (default 64).
	// Oldest finished jobs are forgotten first; running and queued jobs
	// are never dropped.
	JobHistory int
	// Traces is the shared warm cache. Nil gets a fresh unbounded cache;
	// attach a Store-backed cache to start warm from disk.
	Traces *trace.Cache
	// Reg receives server metrics and is shared with every computation.
	// Nil metrics are dropped (obs's nil-safe contract).
	Reg *obs.Registry
}

func (c *Config) fill() {
	if c.JobWorkers <= 0 {
		c.JobWorkers = 2
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 16
	}
	if c.MemoLimit <= 0 {
		c.MemoLimit = 256
	}
	if c.JobHistory <= 0 {
		c.JobHistory = 64
	}
}

// Server runs sweep jobs against one shared trace cache. Create with
// NewServer, submit with Submit, stop with Close (which drains admitted
// jobs before returning).
type Server struct {
	cfg    Config
	reg    *obs.Registry
	traces *trace.Cache
	memo   *memo

	root context.Context
	stop context.CancelFunc

	queue     chan *Job
	quit      chan struct{}
	runnersWG sync.WaitGroup // runner pool goroutines
	jobsWG    sync.WaitGroup // admitted jobs not yet finished
	cellsWG   sync.WaitGroup // in-flight cell computations

	mu     sync.Mutex
	closed bool
	nextID int64
	jobs   map[string]*Job
	order  []string // submission order, for listing and history trim
}

// NewServer builds and starts a server: the runner pool is live on
// return. The caller owns cfg.Traces' underlying store lifecycle beyond
// Close's flush (Close waits for pending async store writes).
func NewServer(cfg Config) *Server {
	cfg.fill()
	if cfg.Traces == nil {
		cfg.Traces = trace.NewCache()
	}
	if cfg.Reg != nil {
		cfg.Traces.Obs = cfg.Reg
		cfg.Reg.AddSource(obs.PrefixTraceCache, cfg.Traces)
		if cfg.Traces.Store != nil {
			cfg.Traces.Store.Obs = cfg.Reg
			cfg.Reg.AddSource(obs.PrefixTraceStore, cfg.Traces.Store)
		}
	}
	root, stop := context.WithCancel(context.Background())
	s := &Server{
		cfg:    cfg,
		reg:    cfg.Reg,
		traces: cfg.Traces,
		memo:   newMemo(cfg.MemoLimit),
		root:   root,
		stop:   stop,
		queue:  make(chan *Job, cfg.QueueCap),
		quit:   make(chan struct{}),
		jobs:   map[string]*Job{},
	}
	for i := 0; i < cfg.JobWorkers; i++ {
		s.runnersWG.Add(1)
		go s.runner()
	}
	return s
}

// Registry returns the server's metrics registry (possibly nil).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Submit validates, registers and enqueues a job. It never blocks: a full
// queue fails fast with ErrQueueFull, a closed server with ErrClosed, a
// bad spec with the validation error. On success the job is admitted —
// Close will wait for it. A job whose every cell is already in the memo
// is answered here instead: it returns finished, without taking a queue
// slot or waiting for a runner.
func (s *Server) Submit(sp JobSpec) (*Job, error) {
	s.reg.Counter("serve.jobs.submitted").Add(1)
	if err := sp.normalize(); err != nil {
		s.reg.Counter("serve.jobs.invalid").Add(1)
		return nil, err
	}
	// Build the job (cells, context) outside the lock — closure
	// construction is cheap but has a deep call graph, and the critical
	// section should only cover the registration bookkeeping.
	j := newJob(s.root, "", sp, s.cells(sp))
	// A memo-only job is finished before it is registered, so no reader
	// ever sees it queued.
	memoized := s.memo.completed(j.cells)
	answered, failed := 0, false
	if memoized != nil {
		answered, failed = j.finishFromMemo(memoized)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		j.cancel()
		return nil, ErrClosed
	}
	s.nextID++
	j.ID = fmt.Sprintf("job-%d", s.nextID)
	id := j.ID
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.trimHistoryLocked()
	if memoized == nil {
		s.jobsWG.Add(1)
	}
	s.mu.Unlock()

	if memoized != nil {
		s.reg.Counter("serve.cells.requests").Add(int64(answered))
		s.reg.Counter("serve.cells.memo_hits").Add(int64(answered))
		s.reg.Counter("serve.jobs.accepted").Add(1)
		if failed {
			s.reg.Counter("serve.jobs.failed").Add(1)
		} else {
			s.reg.Counter("serve.jobs.completed").Add(1)
		}
		return j, nil
	}

	select {
	case s.queue <- j:
	default:
		s.mu.Lock()
		delete(s.jobs, id)
		if n := len(s.order); n > 0 && s.order[n-1] == id {
			s.order = s.order[:n-1]
		}
		s.mu.Unlock()
		s.jobsWG.Done()
		j.cancel()
		s.reg.Counter("serve.jobs.rejected").Add(1)
		return nil, ErrQueueFull
	}
	s.reg.Counter("serve.jobs.accepted").Add(1)
	s.reg.Gauge("serve.queue.depth").Set(int64(len(s.queue)))
	return j, nil
}

// trimHistoryLocked forgets the oldest finished jobs beyond JobHistory.
// Jobs still queued or running don't count against the budget and are
// never dropped.
func (s *Server) trimHistoryLocked() {
	finished := 0
	for _, id := range s.order {
		if j := s.jobs[id]; j != nil {
			if st := j.Status().State; st == StateDone || st == StateFailed || st == StateCanceled {
				finished++
			}
		}
	}
	if finished <= s.cfg.JobHistory {
		return
	}
	keep := s.order[:0]
	for _, id := range s.order {
		j := s.jobs[id]
		if j == nil {
			continue
		}
		st := j.Status().State
		if finished > s.cfg.JobHistory && (st == StateDone || st == StateFailed || st == StateCanceled) {
			delete(s.jobs, id)
			finished--
			continue
		}
		keep = append(keep, id)
	}
	s.order = keep
}

// Job returns a registered job by id.
func (s *Server) Job(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoJob, id)
	}
	return j, nil
}

// Jobs lists registered jobs in submission order.
func (s *Server) Jobs() []Status {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		if j := s.jobs[id]; j != nil {
			jobs = append(jobs, j)
		}
	}
	s.mu.Unlock()
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	return out
}

// runner is one job-pool goroutine: it drains the admission queue until
// Close signals quit (which only happens after every admitted job ran).
func (s *Server) runner() {
	defer s.runnersWG.Done()
	for {
		select {
		case j := <-s.queue:
			s.reg.Gauge("serve.queue.depth").Set(int64(len(s.queue)))
			s.runJob(j)
		case <-s.quit:
			return
		}
	}
}

// runJob executes one job's cells sequentially in spec order — chunks
// stream in the same order the CLI prints, and the concatenation is the
// CLI's stdout byte for byte. Cancellation is checked between cells and
// observed inside them via the job context.
func (s *Server) runJob(j *Job) {
	defer s.jobsWG.Done()
	running := s.reg.Gauge("serve.jobs.running")
	running.Add(1)
	defer running.Add(-1)
	span := s.reg.Span("serve.phase.job")
	defer span.End()

	if err := j.ctx.Err(); err != nil {
		s.reg.Counter("serve.jobs.canceled").Add(1)
		j.finish(StateCanceled, err)
		return
	}
	j.setState(StateRunning)
	for i := range j.cells {
		out, err := s.computeCell(j, j.cells[i])
		if err != nil {
			if j.ctx.Err() != nil {
				s.reg.Counter("serve.jobs.canceled").Add(1)
				j.finish(StateCanceled, err)
			} else {
				s.reg.Counter("serve.jobs.failed").Add(1)
				j.finish(StateFailed, err)
			}
			return
		}
		j.appendChunk(j.cells[i].name, out)
	}
	s.reg.Counter("serve.jobs.completed").Add(1)
	j.finish(StateDone, nil)
}

// computeCell resolves one cell through the single-flight memo: start the
// computation if this request is first, join it if another request is
// already running it, or reuse the memoized bytes. If the joined
// computation is abandoned under us (possible only transiently — our own
// reference protects an entry we wait on), retry with a fresh acquire.
func (s *Server) computeCell(j *Job, c cell) ([]byte, error) {
	requests := s.reg.Counter("serve.cells.requests")
	for {
		requests.Add(1)
		e, kind := s.memo.acquire(s.root, c.key)
		switch kind {
		case acquireStart:
			s.reg.Counter("serve.cells.computed").Add(1)
			s.startCompute(e, c)
		case acquireCoalesced:
			s.reg.Counter("serve.cells.coalesced").Add(1)
		case acquireMemoHit:
			s.reg.Counter("serve.cells.memo_hits").Add(1)
		}
		select {
		case <-e.done:
		case <-j.ctx.Done():
			s.memo.release(e)
			return nil, j.ctx.Err()
		}
		out, err, ok := s.memo.result(e)
		if ok {
			s.memo.release(e)
			return out, err
		}
		// Abandoned: the computation died with the server root context
		// (shutdown) — or a cancellation race we can recover from. Our
		// own context decides whether to retry.
		if err := j.ctx.Err(); err != nil {
			return nil, err
		}
	}
}

// startCompute runs a cell computation on its own goroutine under the
// entry's context (cancelled when the last waiter leaves, not when any
// one job does). complete always runs and always closes e.done, so every
// waiter — and Close's cellsWG — is released on all paths.
func (s *Server) startCompute(e *memoEntry, c cell) {
	s.cellsWG.Add(1)
	go func() {
		defer s.cellsWG.Done()
		out, err := s.timedCompute(e, c)
		s.memo.complete(e, out, err)
	}()
}

// timedCompute runs one cell computation under its phase span.
func (s *Server) timedCompute(e *memoEntry, c cell) ([]byte, error) {
	span := s.reg.Span("serve.phase.cell")
	defer span.End()
	return c.compute(e.ctx)
}

// Close shuts the server down gracefully: stop admitting, let every
// admitted job finish (drain), then tear down the runner pool, join cell
// goroutines, and flush pending persistent-store writes. Safe to call
// once; concurrent Submits during Close fail with ErrClosed.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()

	s.jobsWG.Wait() // every admitted job reached a terminal state
	close(s.quit)   // queue is empty now; release the runners
	s.runnersWG.Wait()
	s.cellsWG.Wait() // cell goroutines complete() even when abandoned
	s.stop()         // release the root context
	s.traces.Store.Wait()
}
