package trace

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"

	"gopim/internal/obs"
	"gopim/internal/profile"
)

// HardwareKey returns a memoization key capturing everything about hw that
// can influence a profile: cache geometry and the scalar/vector reference
// widths (with the Ctx defaults applied, so a zero width and its default
// share an entry). The name is deliberately excluded — it never reaches the
// models.
func HardwareKey(hw profile.Hardware) string {
	scalar, vector := hw.ScalarRef, hw.VectorRef
	if scalar == 0 {
		scalar = 8
	}
	if vector == 0 {
		vector = 16
	}
	l2 := "-"
	if hw.L2 != nil {
		l2 = hw.L2.Key()
	}
	return fmt.Sprintf("%s|%s|s%d|v%d", hw.L1.Key(), l2, scalar, vector)
}

// Stats reports what a Cache has done so far.
type Stats struct {
	Requests  int64 // all Profile requests, hit or not
	Records   int64 // kernel executions (trace captures)
	Replays   int64 // trace replays against a new hardware config
	Hits      int64 // requests served from memoized state (a (kernel, hardware) result, or a resident trace for TraceFor)
	Misses    int64 // requests that fell through to direct execution (no key)
	StoreHits int64 // traces loaded from the persistent store instead of recorded
	Evictions int64 // traces evicted by the in-memory size bound (Limit)
}

// Cache memoizes kernel profiles at two levels: each keyed kernel executes
// (and records its trace) once per process, and each (kernel, hardware)
// pair replays once — later requests return the memoized result. Kernels
// without a cache key (profile.KeyOf == "") always execute directly, as do
// all kernels when the cache pointer is nil.
//
// Cache is safe for concurrent use; in-flight recordings and replays are
// single-flight, so concurrent experiment runners asking for the same
// kernel block on one execution instead of duplicating it.
type Cache struct {
	// Store, when non-nil, is the persistent content-addressed trace
	// store consulted on every trace miss before falling back to direct
	// execution, and written through (asynchronously) on every recording,
	// so cold processes start as warm as the store's contents. Set it
	// before sharing the cache across goroutines. Replays are bit-identical
	// whether a trace was recorded or loaded, so the store never changes
	// output — only how fast it is produced.
	Store *Store

	// Limit, when positive, bounds the in-memory bytes of recorded trace
	// streams (Trace.MemBytes); the least-recently-used traces are evicted
	// once the bound is exceeded. Memoized per-hardware results survive
	// eviction, and a re-requested evicted trace falls back to the Store
	// (when attached) before re-recording. Zero means unlimited — the
	// previous behavior. Set it before sharing the cache across goroutines.
	Limit int64

	// Obs, when non-nil, receives phase-timing spans (kernel record, trace
	// replay) from cache-mediated work; the cache's own counters are exported
	// separately via MetricsInto. Nil (the default) costs a branch per phase.
	// Set it before sharing the cache across goroutines.
	Obs *obs.Registry

	mu      sync.Mutex
	traces  map[string]*traceEntry
	results map[string]*resultEntry
	lru     *list.List // *traceEntry, front = most recently used
	bytes   int64      // sum of admitted entries' bytes

	requests, records, replays, hits, misses, storeHits, evictions atomic.Int64
}

type traceEntry struct {
	key   string
	once  sync.Once
	trace *Trace

	// LRU accounting, guarded by Cache.mu: elem is non-nil only while the
	// entry is admitted (recorded or loaded, and not yet evicted).
	bytes int64
	elem  *list.Element

	// The recording run is a full profile.Run in its own right; its result
	// is kept so the first-requested hardware config costs no extra replay.
	// Traces loaded from the persistent store leave hwKey empty: every
	// hardware config replays.
	hwKey  string
	prof   profile.Profile
	phases map[string]profile.Profile
}

type resultEntry struct {
	once   sync.Once
	prof   profile.Profile
	phases map[string]profile.Profile
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{
		traces:  map[string]*traceEntry{},
		results: map[string]*resultEntry{},
	}
}

// Stats returns a snapshot of the cache's activity counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Requests:  c.requests.Load(),
		Records:   c.records.Load(),
		Replays:   c.replays.Load(),
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		StoreHits: c.storeHits.Load(),
		Evictions: c.evictions.Load(),
	}
}

// MetricsInto implements obs.Source, exporting the cache's counters (and
// current resident bytes) into registry snapshots — the same atomics Stats
// reads, with no extra hot-path accounting.
func (c *Cache) MetricsInto(emit func(name string, value int64)) {
	emit("requests", c.requests.Load())
	emit("records", c.records.Load())
	emit("replays", c.replays.Load())
	emit("hits", c.hits.Load())
	emit("misses", c.misses.Load())
	emit("store_hits", c.storeHits.Load())
	emit("evictions", c.evictions.Load())
	emit("mem_bytes", c.MemBytes())
}

// MemBytes returns the bytes of recorded trace streams currently held in
// memory (the quantity Limit bounds).
func (c *Cache) MemBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Profile returns profile.Run(hw, kernel), executing the kernel at most
// once across all hardware configs and memoizing per-hardware replay
// results. The returned phase map is a private copy.
func (c *Cache) Profile(hw profile.Hardware, kernel profile.Kernel) (profile.Profile, map[string]profile.Profile) {
	key := profile.KeyOf(kernel)
	if c == nil || key == "" {
		if c != nil {
			c.requests.Add(1)
			c.misses.Add(1)
		}
		return profile.Run(hw, kernel)
	}
	c.requests.Add(1)
	hwKey := HardwareKey(hw)

	c.mu.Lock()
	re, ok := c.results[key+"\x00"+hwKey]
	if !ok {
		re = &resultEntry{}
		c.results[key+"\x00"+hwKey] = re
	}
	te, ok := c.traces[key]
	if !ok {
		te = &traceEntry{key: key}
		c.traces[key] = te
	}
	if te.elem != nil {
		c.lru.MoveToFront(te.elem)
	}
	c.mu.Unlock()

	first := false
	re.once.Do(func() {
		first = true
		te.once.Do(func() { c.fill(te, hw, kernel) })
		if te.hwKey == hwKey {
			re.prof, re.phases = te.prof, te.phases
			return
		}
		// Run reports and the benchmark read this span by its old name.
		sp := c.Obs.Span("phase.replay.compiled")
		re.prof, re.phases = te.trace.Replay(hw)
		sp.End()
		c.replays.Add(1)
	})
	if !first {
		c.hits.Add(1)
	}
	return re.prof, clonePhases(re.phases)
}

// TraceFor returns the kernel's recorded trace, executing the kernel at
// most once across the process (and not at all when the persistent store
// already holds it). It is the entry point for batch-replay consumers — the
// design-space explorer prices hundreds of hardware configs against one
// trace via Trace.ReplayBatch, where memoizing per-(kernel, hardware)
// results in the cache would only bloat it. The recording slot is shared
// with Profile: whichever asks first records, single-flight. Unkeyed
// kernels (or a nil cache) record a fresh trace on every call — there is no
// identity to memoize on.
func (c *Cache) TraceFor(kernel profile.Kernel) *Trace {
	key := profile.KeyOf(kernel)
	if c == nil || key == "" {
		if c != nil {
			c.requests.Add(1)
			c.misses.Add(1)
		}
		rec := NewRecorder(kernel.Name())
		profile.Record(profile.SoC(), kernel, rec)
		return rec.Finish()
	}
	c.requests.Add(1)

	c.mu.Lock()
	te, ok := c.traces[key]
	if !ok {
		te = &traceEntry{key: key}
		c.traces[key] = te
	}
	if te.elem != nil {
		c.lru.MoveToFront(te.elem)
	}
	c.mu.Unlock()

	first := false
	te.once.Do(func() {
		first = true
		c.fill(te, profile.SoC(), kernel)
	})
	if !first {
		c.hits.Add(1)
	}
	return te.trace
}

// fill gives te its trace: loaded from the store or, failing that,
// recorded on hw (keeping that run's result) and written through. Either
// way it is then admitted.
func (c *Cache) fill(te *traceEntry, hw profile.Hardware, kernel profile.Kernel) {
	if t, ok := c.Store.Load(te.key); ok {
		te.trace = t
		t.Obs = c.Obs
		c.storeHits.Add(1)
	} else {
		sp := c.Obs.Span("phase.record")
		rec := NewRecorder(kernel.Name())
		te.prof, te.phases = profile.Record(hw, kernel, rec)
		te.trace = rec.Finish()
		sp.End()
		te.hwKey = HardwareKey(hw)
		c.records.Add(1)
		// Set before the write-through, which compiles through Obs.
		te.trace.Obs = c.Obs
		c.Store.SaveAsync(te.key, te.trace)
	}
	c.admit(te)
}

// admit enters a freshly recorded or loaded trace into the LRU accounting
// and enforces Limit by evicting from the cold end. The admitting entry
// itself is never evicted (a single oversized trace still gets used), and
// entries still recording are not in the LRU list yet, so single-flight is
// preserved. Eviction drops only the trace stream — memoized per-hardware
// results stay — and a later request for an evicted key re-enters through
// the Store fallback or a re-recording.
func (c *Cache) admit(te *traceEntry) {
	te.bytes = te.trace.MemBytes()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.lru == nil {
		c.lru = list.New()
	}
	te.elem = c.lru.PushFront(te)
	c.bytes += te.bytes
	if c.Limit <= 0 {
		return
	}
	for c.bytes > c.Limit && c.lru.Len() > 1 {
		old := c.lru.Back().Value.(*traceEntry)
		if old == te {
			break
		}
		c.lru.Remove(old.elem)
		old.elem = nil
		delete(c.traces, old.key)
		c.bytes -= old.bytes
		c.evictions.Add(1)
	}
}

// Runner adapts the cache to the profile.Runner signature.
func (c *Cache) Runner() profile.Runner { return c.Profile }

func clonePhases(m map[string]profile.Profile) map[string]profile.Profile {
	out := make(map[string]profile.Profile, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
