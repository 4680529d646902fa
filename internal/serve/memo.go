package serve

import (
	"context"
	"sync"
)

// memo is the cross-request single-flight layer: one entry per cell key,
// covering both in-flight computations (so identical cells from different
// jobs — different tenants — coalesce onto one goroutine) and a bounded
// LRU of completed results (so a sweep re-submitted after its first job
// finished is served from memory without recomputing). It extends
// trace.Cache's per-kernel sync.Once single-flight up to the
// experiment/pricing layer: trace.Cache dedupes the kernel walk, memo
// dedupes everything above it — profiling, pricing, rendering.
//
// In-flight entries are reference counted by their waiters. When the last
// waiter abandons an entry (its job was cancelled), the computation's
// context is cancelled too — work nobody is waiting for stops in bounded
// time instead of finishing into a result nobody reads. Completed entries
// hold no references and are evicted oldest-first past limit; in-flight
// entries are never evicted.
type memo struct {
	limit int

	mu      sync.Mutex
	entries map[string]*memoEntry
	order   []string // completed keys, oldest first (MRU at the end)
}

// acquireKind classifies what acquire found, for the server's
// coalescing metrics.
type acquireKind int

const (
	acquireStart     acquireKind = iota // new entry; caller must start the computation
	acquireCoalesced                    // joined another request's in-flight computation
	acquireMemoHit                      // completed result served from the memo
)

// memoEntry is one cell computation's lifecycle. done closes exactly once,
// when the computation finishes or is abandoned; out/err/canceled are
// immutable after that.
type memoEntry struct {
	key    string
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	// Guarded by memo.mu.
	refs     int // waiters, while in flight
	inflight bool
	canceled bool
	out      []byte
	err      error
}

func newMemo(limit int) *memo {
	return &memo{limit: limit, entries: map[string]*memoEntry{}}
}

// acquire returns the entry for key, creating it if absent. The caller
// holds one reference on an in-flight entry and must balance it with
// release (or let complete settle it). The speculative child context is
// built before taking the lock so no context machinery runs under it; when
// the key already exists the unused cancel is released on return.
func (m *memo) acquire(root context.Context, key string) (*memoEntry, acquireKind) {
	ctx, cancel := context.WithCancel(root)
	m.mu.Lock()
	if e, ok := m.entries[key]; ok {
		kind := acquireMemoHit
		if e.inflight {
			e.refs++
			kind = acquireCoalesced
		} else {
			m.touchLocked(key)
		}
		m.mu.Unlock()
		cancel()
		return e, kind
	}
	e := &memoEntry{
		key:      key,
		ctx:      ctx,
		cancel:   cancel,
		done:     make(chan struct{}),
		refs:     1,
		inflight: true,
	}
	m.entries[key] = e
	m.mu.Unlock()
	return e, acquireStart
}

// release drops one waiter's reference. When the last waiter leaves an
// entry still in flight, the computation is abandoned: cancelled, removed
// from the map (a later request for the key starts fresh), and marked so
// complete discards its result. Releasing a completed entry is a no-op.
func (m *memo) release(e *memoEntry) {
	m.mu.Lock()
	if !e.inflight {
		m.mu.Unlock()
		return
	}
	e.refs--
	if e.refs > 0 {
		m.mu.Unlock()
		return
	}
	e.canceled = true
	delete(m.entries, e.key)
	m.mu.Unlock()
	e.cancel()
}

// complete publishes a finished computation's result and wakes waiters. A
// computation whose context died (all waiters gone, or server shutdown)
// is discarded rather than memoized — its error is circumstantial, not a
// property of the spec, and must not poison later requests. Deterministic
// failures (bad spec reaching compute, render errors) are memoized like
// successes: recomputing them would yield the same bytes.
func (m *memo) complete(e *memoEntry, out []byte, err error) {
	abandoned := err != nil && e.ctx.Err() != nil
	m.mu.Lock()
	if e.canceled {
		m.mu.Unlock()
		close(e.done)
		return
	}
	if abandoned {
		e.canceled = true
		delete(m.entries, e.key)
		m.mu.Unlock()
		close(e.done)
		e.cancel()
		return
	}
	e.inflight = false
	e.refs = 0
	e.out, e.err = out, err
	m.order = append(m.order, e.key)
	for m.limit > 0 && len(m.order) > m.limit {
		delete(m.entries, m.order[0])
		m.order = m.order[1:]
	}
	m.mu.Unlock()
	close(e.done)
	e.cancel()
}

// result reads a settled entry after its done channel closed. ok is false
// when the computation was abandoned — the caller retries (its own
// context permitting) with a fresh acquire.
func (m *memo) result(e *memoEntry) (out []byte, err error, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e.canceled {
		return nil, nil, false
	}
	return e.out, e.err, true
}

// memoResult is one completed cell's memoized output.
type memoResult struct {
	out []byte
	err error
}

// completed returns the results memoized for cells, in order, and marks
// each most recently used, if every cell is a completed entry; otherwise
// it returns nil and changes nothing.
func (m *memo) completed(cells []cell) []memoResult {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]memoResult, len(cells))
	for i, c := range cells {
		e, ok := m.entries[c.key]
		if !ok || e.inflight {
			return nil
		}
		out[i] = memoResult{e.out, e.err}
	}
	for _, c := range cells {
		m.touchLocked(c.key)
	}
	return out
}

// touchLocked moves a completed key to the MRU end of the eviction order.
func (m *memo) touchLocked(key string) {
	for i, k := range m.order {
		if k == key {
			m.order = append(append(m.order[:i:i], m.order[i+1:]...), key)
			return
		}
	}
}

// len reports how many entries (in-flight + completed) the memo holds.
func (m *memo) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}
