package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// TestNilRegistryIsNoOp locks in the no-op path: every handle from a nil
// registry must be usable without panicking and observe nothing.
func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	r.Counter("c").Add(3)
	if got := r.Counter("c").Value(); got != 0 {
		t.Fatalf("nil counter value = %d, want 0", got)
	}
	r.Gauge("g").Set(7)
	r.Gauge("g").Add(1)
	if got := r.Gauge("g").Value(); got != 0 {
		t.Fatalf("nil gauge value = %d, want 0", got)
	}
	r.Histogram("h").Observe(42)
	sp := r.Span("phase.x")
	sp.End()
	r.AddSource("p.", sourceFunc(func(emit func(string, int64)) { emit("x", 1) }))
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", snap)
	}
}

type sourceFunc func(emit func(string, int64))

func (f sourceFunc) MetricsInto(emit func(string, int64)) { f(emit) }

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits")
	c.Add(2)
	c.Add(3)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if r.Counter("hits") != c {
		t.Fatal("Counter did not return the same handle for the same name")
	}
	g := r.Gauge("depth")
	g.Set(10)
	g.Add(-4)
	if g.Value() != 6 {
		t.Fatalf("gauge = %d, want 6", g.Value())
	}
}

// TestHistogramBucketBoundaries pins the log2 bucket layout: bucket 0
// holds v <= 0 and bucket i holds 2^(i-1) <= v < 2^i, with Le = 2^i - 1.
func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		v   int64
		idx int
		le  int64 // BucketBound(idx)
	}{
		{-5, 0, 0},
		{0, 0, 0},
		{1, 1, 1},
		{2, 2, 3},
		{3, 2, 3},
		{4, 3, 7},
		{7, 3, 7},
		{8, 4, 15},
		{1023, 10, 1023},
		{1024, 11, 2047},
		{1<<62 - 1, 62, 1<<62 - 1},
		{1 << 62, 63, 1<<63 - 1},
		{1<<63 - 1, 63, 1<<63 - 1},
	}
	for _, tc := range cases {
		if got := bucketIndex(tc.v); got != tc.idx {
			t.Errorf("bucketIndex(%d) = %d, want %d", tc.v, got, tc.idx)
		}
		if got := BucketBound(tc.idx); got != tc.le {
			t.Errorf("BucketBound(%d) = %d, want %d", tc.idx, got, tc.le)
		}
		if tc.v > tc.le {
			t.Errorf("value %d exceeds its bucket bound %d", tc.v, tc.le)
		}
	}
	// Every value must land in a bucket whose bound contains it and whose
	// predecessor's bound does not.
	for _, v := range []int64{1, 2, 5, 100, 999, 1e6, 1e12, 1<<63 - 1} {
		i := bucketIndex(v)
		if v > BucketBound(i) {
			t.Errorf("v=%d above bound of its bucket %d", v, i)
		}
		if i > 0 && v <= BucketBound(i-1) {
			t.Errorf("v=%d also fits bucket %d", v, i-1)
		}
	}
}

func TestHistogramObserveAndSnapshot(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("phase.test")
	for _, v := range []int64{1, 1, 3, 100, -2} {
		h.Observe(v)
	}
	snap := r.Snapshot()
	hs, ok := snap.Histograms["phase.test"]
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	if hs.Count != 5 || hs.Sum != 103 {
		t.Fatalf("count/sum = %d/%d, want 5/103", hs.Count, hs.Sum)
	}
	if got, want := hs.Mean(), 103.0/5; got != want {
		t.Fatalf("mean = %v, want %v", got, want)
	}
	// Buckets: -2 -> le 0; 1,1 -> le 1; 3 -> le 3; 100 -> le 127.
	want := []Bucket{{0, 1}, {1, 2}, {3, 1}, {127, 1}}
	if len(hs.Buckets) != len(want) {
		t.Fatalf("buckets = %+v, want %+v", hs.Buckets, want)
	}
	for i, b := range want {
		if hs.Buckets[i] != b {
			t.Fatalf("bucket[%d] = %+v, want %+v", i, hs.Buckets[i], b)
		}
	}
}

func TestSpanRecordsNonNegativeDuration(t *testing.T) {
	r := NewRegistry()
	sp := r.Span("phase.unit")
	sp.End()
	hs := r.Snapshot().Histograms["phase.unit"]
	if hs.Count != 1 {
		t.Fatalf("span count = %d, want 1", hs.Count)
	}
	if hs.Sum < 0 {
		t.Fatalf("span recorded negative duration %d", hs.Sum)
	}
}

func TestSnapshotPollsSources(t *testing.T) {
	r := NewRegistry()
	r.AddSource("trace.cache.", sourceFunc(func(emit func(string, int64)) {
		emit("hits", 9)
		emit("misses", 1)
	}))
	snap := r.Snapshot()
	if snap.Counters["trace.cache.hits"] != 9 || snap.Counters["trace.cache.misses"] != 1 {
		t.Fatalf("source metrics missing: %+v", snap.Counters)
	}
}

// TestRegistryConcurrency hammers every registry surface from many
// goroutines; run under -race this is the registry's thread-safety proof.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	r.AddSource("src.", sourceFunc(func(emit func(string, int64)) { emit("v", 1) }))
	const goroutines = 16
	const iters = 2000
	names := []string{"a", "b", "c", "d"}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				name := names[(g+i)%len(names)]
				r.Counter(name).Add(1)
				r.Gauge(name).Set(int64(i))
				r.Histogram(name).Observe(int64(i % 1000))
				sp := r.Span("phase." + name)
				sp.End()
				if i%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	snap := r.Snapshot()
	var total int64
	for _, n := range names {
		total += snap.Counters[n]
	}
	if want := int64(goroutines * iters); total != want {
		t.Fatalf("counter total = %d, want %d", total, want)
	}
	for _, n := range names {
		h := snap.Histograms[n]
		var bucketSum int64
		for _, b := range h.Buckets {
			bucketSum += b.Count
		}
		if bucketSum != h.Count {
			t.Fatalf("histogram %q bucket sum %d != count %d", n, bucketSum, h.Count)
		}
	}
}

func TestBuildReportDerived(t *testing.T) {
	r := NewRegistry()
	r.AddSource(PrefixTraceCache, sourceFunc(func(emit func(string, int64)) {
		emit("requests", 100)
		emit("hits", 80)
		emit("misses", 5)
		emit("records", 15)
	}))
	r.AddSource(PrefixTraceStore, sourceFunc(func(emit func(string, int64)) {
		emit("hits", 6)
		emit("misses", 2)
		emit("corrupt", 0)
	}))
	r.Counter("par.worker.busy_ns").Add(900)
	r.Counter("par.worker.idle_ns").Add(100)
	rep := BuildReport(r, RunMeta{Command: "run", Scale: "quick", Workers: 4}, 1234,
		[]ExperimentTime{{Name: "fig5", WallNS: 10}})
	if rep.Version != ReportVersion {
		t.Fatalf("version = %d, want %d", rep.Version, ReportVersion)
	}
	if got := rep.Derived.TraceCacheHitRate; got != 0.8 {
		t.Fatalf("cache hit rate = %v, want 0.8", got)
	}
	if got := rep.Derived.StoreHitRate; got != 0.75 {
		t.Fatalf("store hit rate = %v, want 0.75", got)
	}
	if got := rep.Derived.WorkerUtilization; got != 0.9 {
		t.Fatalf("worker utilization = %v, want 0.9", got)
	}
	if got := rep.Derived.KernelExecutions; got != 20 {
		t.Fatalf("kernel executions = %d, want 20", got)
	}
}

func TestBuildReportEmptyRegistryNoNaN(t *testing.T) {
	rep := BuildReport(NewRegistry(), RunMeta{Command: "run"}, 0, nil)
	d := rep.Derived
	for _, v := range []float64{d.TraceCacheHitRate, d.StoreHitRate, d.WorkerUtilization} {
		if v != 0 {
			t.Fatalf("empty-registry derived metric = %v, want 0", v)
		}
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("x").Add(1)
	r.Histogram("phase.p").Observe(5)
	rep := BuildReport(r, RunMeta{Command: "explore", Configs: 3}, 99, nil)
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
	if back.Version != ReportVersion || back.Meta.Configs != 3 || back.WallNS != 99 {
		t.Fatalf("round-trip mismatch: %+v", back)
	}
	if back.Metrics.Counters["x"] != 1 {
		t.Fatalf("counters lost in round-trip: %+v", back.Metrics.Counters)
	}
}

func TestReportWriteTextMentionsKeySections(t *testing.T) {
	r := NewRegistry()
	r.AddSource(PrefixTraceCache, sourceFunc(func(emit func(string, int64)) {
		emit("requests", 10)
		emit("hits", 10)
	}))
	r.Histogram("phase.replay.compiled").Observe(1000)
	rep := BuildReport(r, RunMeta{Command: "run", Scale: "quick", Workers: 2}, 5e6,
		[]ExperimentTime{{Name: "fig5", WallNS: 2e6}, {Name: "fig9", WallNS: 3e6}})
	var buf bytes.Buffer
	rep.WriteText(&buf)
	out := buf.String()
	for _, want := range []string{
		"pimsim run report",
		"phase.replay.compiled",
		"trace cache: 100.0% hit rate",
		"kernel executions: 0",
		"fig9",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stats text missing %q:\n%s", want, out)
		}
	}
}
