package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"gopim"
	"gopim/experiments"
	"gopim/internal/obs"
	"gopim/internal/trace"
)

// cliRunReference renders the named experiments exactly the way
// `pimsim run <names...>` prints them: serial, no cache — the simplest
// possible pipeline, which every other configuration is gated
// byte-identical to.
func cliRunReference(t *testing.T, names []string) []byte {
	t.Helper()
	res, err := experiments.RunNamed(experiments.Options{Scale: gopim.Quick, Workers: 1, Traces: trace.NewCache()}, names)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, r := range res {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Name, r.Err)
		}
		fmt.Fprintf(&buf, "==== %s ====\n", r.Name)
		if err := experiments.Render(&buf, r.Name, r.Data); err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		fmt.Fprintln(&buf)
	}
	return buf.Bytes()
}

func waitDone(t *testing.T, j *Job) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := j.Wait(ctx); err != nil {
		t.Fatalf("job %s did not finish: %v", j.ID, err)
	}
}

func TestSpecNormalize(t *testing.T) {
	bad := []JobSpec{
		{},
		{Kind: "nope"},
		{Kind: "run", Scale: "huge"},
		{Kind: "run", Experiments: []string{"fig999"}},
		{Kind: "explore", Mode: "random"},
		{Kind: "explore", Mode: "spiral"},
		{Kind: "explore", Format: "xml"},
	}
	for i, sp := range bad {
		if err := sp.normalize(); err == nil {
			t.Errorf("case %d: normalize(%+v) accepted a bad spec", i, sp)
		}
	}
	sp := JobSpec{Kind: "run"}
	if err := sp.normalize(); err != nil {
		t.Fatal(err)
	}
	if sp.Scale != "quick" || len(sp.Experiments) != len(experiments.Names()) {
		t.Errorf("run defaults not filled: %+v", sp)
	}
	xp := JobSpec{Kind: "explore"}
	if err := xp.normalize(); err != nil {
		t.Fatal(err)
	}
	if xp.Mode != "grid" || xp.Format != "text" {
		t.Errorf("explore defaults not filled: %+v", xp)
	}
}

func TestRunJobMatchesCLI(t *testing.T) {
	names := []string{"fig1", "table1", "fig6"}
	want := cliRunReference(t, names)

	s := NewServer(Config{Traces: trace.NewCache()})
	defer s.Close()
	j, err := s.Submit(JobSpec{Kind: "run", Experiments: names, Tenant: "cli-diff"})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	got, err := j.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("job result diverges from CLI output\n got %d bytes\nwant %d bytes", len(got), len(want))
	}
}

func TestExploreJobMatchesCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("explore sweep reference is slow; covered in the full suite")
	}
	res, err := experiments.Explore(experiments.Options{Scale: gopim.Quick, Workers: 1, Traces: trace.NewCache()},
		experiments.ExploreOptions{Mode: "random", N: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := experiments.RenderExplore(&want, res, "csv"); err != nil {
		t.Fatal(err)
	}

	s := NewServer(Config{Traces: trace.NewCache()})
	defer s.Close()
	j, err := s.Submit(JobSpec{Kind: "explore", Mode: "random", N: 2, Seed: 7, Format: "csv"})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	got, err := j.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("explore job diverges from CLI output\n got: %q...\nwant: %q...",
			clip(got), clip(want.Bytes()))
	}
}

func clip(b []byte) string {
	if len(b) > 120 {
		b = b[:120]
	}
	return string(b)
}

// TestConcurrentMixedTenantDeterminism is the PR's core guarantee: N
// goroutines submit overlapping sweeps as different tenants against one
// server, and (a) every response is byte-identical to the serial CLI
// reference for its spec, (b) the shared cache + single-flight memo
// execute each kernel exactly once — the obs report's kernel_executions
// equals the number of unique kernels (= cache records), and (c) each
// unique cell is computed exactly once, with every duplicate request
// either coalesced onto the in-flight computation or served from the
// memo. Run under -race in CI.
func TestConcurrentMixedTenantDeterminism(t *testing.T) {
	all := experiments.Names()
	subsets := [][]string{
		all[:8],
		all[4:12],
		all[:8], // duplicate of subset 0 — must coalesce or memo-hit
		all[6:14],
		all[4:12], // duplicate of subset 1
		all[2:10],
	}
	refs := map[string][]byte{}
	for _, names := range subsets {
		k := strings.Join(names, ",")
		if _, ok := refs[k]; !ok {
			refs[k] = cliRunReference(t, names)
		}
	}

	reg := obs.NewRegistry()
	s := NewServer(Config{JobWorkers: 4, QueueCap: 32, Traces: trace.NewCache(), Reg: reg})
	defer s.Close()

	jobs := make([]*Job, len(subsets))
	var wg sync.WaitGroup
	for i := range subsets {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, err := s.Submit(JobSpec{
				Kind:        "run",
				Experiments: subsets[i],
				Tenant:      fmt.Sprintf("tenant-%d", i),
			})
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			jobs[i] = j
		}(i)
	}
	wg.Wait()
	for i, j := range jobs {
		if j == nil {
			t.Fatalf("job %d was not admitted", i)
		}
		waitDone(t, j)
		got, err := j.Result()
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if want := refs[strings.Join(subsets[i], ",")]; !bytes.Equal(got, want) {
			t.Errorf("tenant %d result diverges from serial CLI reference (%d vs %d bytes)",
				i, len(got), len(want))
		}
	}

	rep := obs.BuildReport(reg, obs.RunMeta{Command: "serve", Workers: 4}, 1, nil)
	records := rep.Metrics.Counters[obs.PrefixTraceCache+"records"]
	if records <= 0 {
		t.Fatalf("shared cache recorded no kernels")
	}
	if rep.Derived.KernelExecutions != records {
		t.Errorf("kernel executions %d != unique kernels %d: some kernel ran more than once (or ran unkeyed)",
			rep.Derived.KernelExecutions, records)
	}

	uniqueCells := map[string]bool{}
	totalCells := 0
	for _, names := range subsets {
		for _, n := range names {
			uniqueCells["run|quick|"+n] = true
			totalCells++
		}
	}
	c := rep.Metrics.Counters
	if got := c["serve.cells.computed"]; got != int64(len(uniqueCells)) {
		t.Errorf("cells computed = %d, want %d (one per unique cell)", got, len(uniqueCells))
	}
	if got := c["serve.cells.requests"]; got != int64(totalCells) {
		t.Errorf("cell requests = %d, want %d", got, totalCells)
	}
	dedup := c["serve.cells.coalesced"] + c["serve.cells.memo_hits"]
	if want := int64(totalCells - len(uniqueCells)); dedup != want {
		t.Errorf("coalesced(%d) + memo_hits(%d) = %d, want %d duplicates deduped",
			c["serve.cells.coalesced"], c["serve.cells.memo_hits"], dedup, want)
	}
}

// newIdleServer builds a Server with no runner pool, so admission
// mechanics can be tested deterministically: queued jobs stay queued.
func newIdleServer(queueCap int) *Server {
	root, stop := context.WithCancel(context.Background())
	return &Server{
		cfg:    Config{JobWorkers: 1, QueueCap: queueCap, MemoLimit: 8, JobHistory: 8},
		traces: trace.NewCache(),
		memo:   newMemo(8),
		root:   root,
		stop:   stop,
		queue:  make(chan *Job, queueCap),
		quit:   make(chan struct{}),
		jobs:   map[string]*Job{},
	}
}

// drainIdle settles an idle server's accounting so the test leaks nothing.
func drainIdle(s *Server) {
	for {
		select {
		case j := <-s.queue:
			j.finish(StateCanceled, context.Canceled)
			s.jobsWG.Done()
		default:
			s.stop()
			return
		}
	}
}

func TestSubmitBackpressure(t *testing.T) {
	s := newIdleServer(2)
	defer drainIdle(s)
	sp := JobSpec{Kind: "run", Experiments: []string{"fig1"}}
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(sp); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if _, err := s.Submit(sp); err != ErrQueueFull {
		t.Fatalf("submit over capacity: err = %v, want ErrQueueFull", err)
	}
	if got := len(s.Jobs()); got != 2 {
		t.Errorf("rejected job left residue: %d jobs registered, want 2", got)
	}

	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	if _, err := s.Submit(sp); err != ErrClosed {
		t.Fatalf("submit after close: err = %v, want ErrClosed", err)
	}
}

// TestMemoOnlyJobAnsweredAtAdmission pins admission-time answers: with
// the only runner busy and the queue full, a spec whose every cell is
// memoized is still admitted, returns from Submit done, and carries the
// bytes its first computation produced.
func TestMemoOnlyJobAnsweredAtAdmission(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewServer(Config{JobWorkers: 1, QueueCap: 1, Traces: trace.NewCache(), Reg: reg})
	defer s.Close()
	spec := JobSpec{Kind: "run", Experiments: []string{"table1"}}
	first, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, first)
	want, err := first.Result()
	if err != nil {
		t.Fatal(err)
	}

	// Occupy the runner and the one queue slot with jobs whose cell
	// blocks until released (before Close drains them).
	release := make(chan struct{})
	defer close(release)
	started := make(chan struct{}, 2)
	block := func(name string) {
		j := newJob(s.root, name, JobSpec{Kind: "run"}, []cell{{name: name, key: "block|" + name,
			compute: func(ctx context.Context) ([]byte, error) {
				started <- struct{}{}
				select {
				case <-release:
				case <-ctx.Done():
				}
				return nil, nil
			}}})
		s.jobsWG.Add(1)
		s.queue <- j
	}
	block("busy")
	<-started
	block("queued")
	if _, err := s.Submit(JobSpec{Kind: "run", Experiments: []string{"fig1"}}); err != ErrQueueFull {
		t.Fatalf("submit with the runner busy and the queue full: err = %v, want ErrQueueFull", err)
	}

	before := reg.Snapshot().Counters
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("memo-only submit with the runner busy and the queue full: %v", err)
	}
	if st := j.Status(); st.State != StateDone || st.ChunksDone != 1 {
		t.Fatalf("memo-only job returned %s with %d chunks, want done with 1", st.State, st.ChunksDone)
	}
	got, err := j.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("memo-only job bytes differ from the first computation's:\n got %q\nwant %q", got, want)
	}
	after := reg.Snapshot().Counters
	for _, name := range []string{"serve.cells.requests", "serve.cells.memo_hits"} {
		if d := after[name] - before[name]; d != 1 {
			t.Errorf("%s rose by %d, want 1", name, d)
		}
	}
}

// TestMemoizedErrorFailsAtAdmission: a memo-only job whose cell memoized
// an error fails at admission with that error and is never queued.
func TestMemoizedErrorFailsAtAdmission(t *testing.T) {
	s := newIdleServer(1)
	defer drainIdle(s)
	e, _ := s.memo.acquire(s.root, "run|quick|fig1")
	s.memo.complete(e, nil, fmt.Errorf("fig1: memoized failure"))
	j, err := s.Submit(JobSpec{Kind: "run", Experiments: []string{"fig1"}})
	if err != nil {
		t.Fatal(err)
	}
	if st := j.Status(); st.State != StateFailed || !strings.Contains(st.Error, "memoized failure") {
		t.Fatalf("status = %+v, want failed with the memoized error", st)
	}
	if n := len(s.queue); n != 0 {
		t.Fatalf("a memo-only job took a queue slot: %d queued", n)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	s := newIdleServer(4)
	defer drainIdle(s)
	j, err := s.Submit(JobSpec{Kind: "run", Experiments: []string{"fig1"}})
	if err != nil {
		t.Fatal(err)
	}
	j.Cancel()
	// Run it the way the pool would: a cancelled queued job finishes
	// canceled without computing anything.
	<-s.queue
	s.runJob(j)
	if st := j.Status(); st.State != StateCanceled {
		t.Fatalf("state = %s, want canceled", st.State)
	}
	if _, err := j.Result(); err == nil {
		t.Fatal("Result() on a canceled job returned no error")
	}
}

func TestMemoSingleFlight(t *testing.T) {
	m := newMemo(2)
	root := context.Background()

	e1, kind := m.acquire(root, "k")
	if kind != acquireStart {
		t.Fatalf("first acquire = %v, want start", kind)
	}
	e2, kind := m.acquire(root, "k")
	if kind != acquireCoalesced || e2 != e1 {
		t.Fatalf("second acquire = %v (same entry: %v), want coalesced on the same entry", kind, e1 == e2)
	}
	m.complete(e1, []byte("out"), nil)
	out, err, ok := m.result(e1)
	if !ok || err != nil || string(out) != "out" {
		t.Fatalf("result = %q, %v, %v", out, err, ok)
	}
	if _, kind := m.acquire(root, "k"); kind != acquireMemoHit {
		t.Fatalf("post-completion acquire = %v, want memo hit", kind)
	}

	// Last waiter leaving an in-flight entry cancels its computation and
	// removes it, so the next request starts fresh.
	ew, kind := m.acquire(root, "w")
	if kind != acquireStart {
		t.Fatalf("acquire w = %v, want start", kind)
	}
	m.release(ew)
	if ew.ctx.Err() == nil {
		t.Fatal("abandoned entry's context not cancelled")
	}
	m.complete(ew, nil, ew.ctx.Err())
	if _, _, ok := m.result(ew); ok {
		t.Fatal("abandoned entry reported a usable result")
	}
	if _, kind := m.acquire(root, "w"); kind != acquireStart {
		t.Fatalf("re-acquire after abandon = %v, want a fresh start", kind)
	}

	// Completed entries are bounded: limit 2, oldest evicted first.
	for _, k := range []string{"a", "b", "c"} {
		e, _ := m.acquire(root, k)
		m.complete(e, []byte(k), nil)
	}
	if _, kind := m.acquire(root, "a"); kind != acquireStart {
		t.Fatalf("evicted key acquire = %v, want start", kind)
	}
}

// TestCloseDrainsAndSettles pins graceful shutdown: Close waits for every
// admitted job, and after it returns no server goroutine survives — the
// leak gate for the runner pool, cell computations, and store writers.
func TestCloseDrainsAndSettles(t *testing.T) {
	base := runtime.NumGoroutine()
	func() {
		s := NewServer(Config{Traces: trace.NewCache()})
		var jobs []*Job
		for i := 0; i < 3; i++ {
			j, err := s.Submit(JobSpec{Kind: "run", Experiments: []string{"fig1", "fig6"}})
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, j)
		}
		s.Close()
		for i, j := range jobs {
			if st := j.Status(); st.State != StateDone {
				t.Errorf("after Close, job %d state = %s, want done (Close must drain admitted jobs)", i, st.State)
			}
		}
		if _, err := s.Submit(JobSpec{Kind: "run"}); err != ErrClosed {
			t.Errorf("submit after Close: err = %v, want ErrClosed", err)
		}
	}()

	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines did not settle after Close: %d running, want <= %d\n%s",
				runtime.NumGoroutine(), base, buf[:n])
		}
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
}

// validSubmission is a spec TestHTTPAPI's bad submissions build on.
const validSubmission = `{"kind":"run","experiments":["table1"]}`

// badSubmissions are POST /jobs bodies and the status each must get. A
// bad spec of exactly the bound, padded through its tenant name, is still
// decoded. A valid spec followed by a second value, or by trailing bytes
// past the bound, is rejected as a whole.
func badSubmissions() []struct {
	body string
	want int
} {
	padded := func(size int) string {
		const spec = `{"kind":"run","experiments":["fig999"],"tenant":"%s"}`
		return fmt.Sprintf(spec, strings.Repeat("x", size-len(spec)+2))
	}
	return []struct {
		body string
		want int
	}{
		{"{not json", http.StatusBadRequest},
		{`{"kind":"run","experiments":["fig999"]}`, http.StatusBadRequest},
		{`{"kind":"run","bogus":1}`, http.StatusBadRequest},
		{padded(maxSpecBytes), http.StatusBadRequest},
		{padded(maxSpecBytes + 1), http.StatusRequestEntityTooLarge},
		{validSubmission + "\n" + validSubmission, http.StatusBadRequest},
		{validSubmission + " x", http.StatusBadRequest},
		{validSubmission + strings.Repeat(" ", maxSpecBytes), http.StatusRequestEntityTooLarge},
	}
}

// FuzzJobSpec feeds bodies through handleSubmit's decoding and then
// normalize. Neither may panic, and an accepted spec must normalize
// idempotently, to the same cell keys. The seeds are TestHTTPAPI's
// submissions; those over a few KiB only test the HTTP layer's size
// bound, which decodeSpec does not apply, and would slow every mutation.
func FuzzJobSpec(f *testing.F) {
	spec, _ := json.Marshal(JobSpec{Kind: "run", Experiments: []string{"fig1", "table1"}, Tenant: "http-test"})
	f.Add(append(spec, " \n"...))
	f.Add([]byte(validSubmission))
	f.Add([]byte(`{"kind":"explore","mode":"random","n":3,"seed":7,"format":"json"}`))
	for _, c := range badSubmissions() {
		if len(c.body) <= 4<<10 {
			f.Add([]byte(c.body))
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		sp, err := decodeSpec(bytes.NewReader(body))
		if err != nil || sp.normalize() != nil {
			return
		}
		again := sp
		again.Experiments = slices.Clone(sp.Experiments)
		if err := again.normalize(); err != nil {
			t.Fatalf("normalized spec %+v fails a second normalize: %v", sp, err)
		}
		if !reflect.DeepEqual(again, sp) {
			t.Fatalf("normalize is not idempotent: %+v, then %+v", sp, again)
		}
		var s Server
		if a, b := cellKeys(s.cells(sp)), cellKeys(s.cells(again)); !slices.Equal(a, b) {
			t.Fatalf("cell keys %q, then %q", a, b)
		}
	})
}

func cellKeys(cells []cell) []string {
	keys := make([]string, len(cells))
	for i, c := range cells {
		keys[i] = c.key
	}
	return keys
}

func TestHTTPAPI(t *testing.T) {
	names := []string{"fig1", "table1"}
	want := cliRunReference(t, names)

	reg := obs.NewRegistry()
	s := NewServer(Config{Traces: trace.NewCache(), Reg: reg})
	api, err := ServeAPI("127.0.0.1:0", s)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := api.Close(); err != nil {
			t.Errorf("api close: %v", err)
		}
		s.Close()
	}()
	base := "http://" + api.Addr()

	// Bad submissions map to 400 and a body over maxSpecBytes to 413, in
	// the JSON error shape, and admit no job.
	for _, c := range badSubmissions() {
		resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var e struct{ Error string }
		decErr := json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != c.want || decErr != nil || e.Error == "" {
			t.Errorf("POST %.40q (%d bytes): status %d (want %d), error %.80q, decode err %v",
				c.body, len(c.body), resp.StatusCode, c.want, e.Error, decErr)
		}
	}
	if n := len(s.Jobs()); n != 0 {
		t.Errorf("rejected submissions admitted %d jobs", n)
	}

	// Whitespace after the spec is allowed.
	spec, _ := json.Marshal(JobSpec{Kind: "run", Experiments: names, Tenant: "http-test"})
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(append(spec, " \n"...)))
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || st.ID == "" {
		t.Fatalf("POST /jobs: status %d, id %q", resp.StatusCode, st.ID)
	}

	// Stream the job: chunk records then a done record; the concatenated
	// chunks are the CLI bytes.
	resp, err = http.Get(base + "/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	var streamed bytes.Buffer
	var final streamRecord
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var rec streamRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		if rec.Done {
			final = rec
			break
		}
		if rec.Chunk == nil {
			t.Fatalf("stream record with neither chunk nor done: %q", sc.Text())
		}
		streamed.WriteString(rec.Chunk.Output)
	}
	resp.Body.Close()
	if final.State != StateDone {
		t.Fatalf("final stream state = %q, want done", final.State)
	}
	if !bytes.Equal(streamed.Bytes(), want) {
		t.Errorf("streamed chunks diverge from CLI output (%d vs %d bytes)", streamed.Len(), len(want))
	}

	// Poll endpoints after completion.
	resp, err = http.Get(base + "/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	got := new(bytes.Buffer)
	if _, err := got.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got.Bytes(), want) {
		t.Errorf("GET result: status %d, %d bytes; want 200 with %d CLI-identical bytes",
			resp.StatusCode, got.Len(), len(want))
	}

	for path, wantCode := range map[string]int{
		"/jobs":             http.StatusOK,
		"/jobs/" + st.ID:    http.StatusOK,
		"/jobs/nope":        http.StatusNotFound,
		"/jobs/nope/result": http.StatusNotFound,
		"/healthz":          http.StatusOK,
		"/metrics":          http.StatusOK,
	} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != wantCode {
			t.Errorf("GET %s: status %d, want %d", path, resp.StatusCode, wantCode)
		}
	}

	// Cancel is accepted for any live job id (here: already done — a no-op).
	req, _ := http.NewRequest(http.MethodDelete, base+"/jobs/"+st.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("DELETE job: status %d, want 202", resp.StatusCode)
	}
}
