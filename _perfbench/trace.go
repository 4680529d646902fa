package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed region recorded by the benchmark around a call into
// the program, or synthesized from a duration the program reported (an
// experiment's wall time, a phase total). Spans of one op share Op; set-up
// and the layer walk use op -1.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"` // index into the span list, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them once, when the run ends. A
// nil tracer records nothing, so untraced runs pay one branch per span.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// now returns the tracer clock in nanoseconds since the run started.
func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	return t.add(name, op, parent, t.now(), -1)
}

// end closes the span begun as id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span with known bounds and returns its id.
func (t *tracer) add(name string, op, parent int, start, end int64) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: start, End: end})
	return len(t.spans) - 1
}

// timed runs fn inside a span and returns its duration in seconds.
func (t *tracer) timed(name string, op, parent int, fn func()) float64 {
	id := t.begin(name, op, parent)
	start := time.Now()
	fn()
	d := time.Since(start)
	t.end(id)
	return d.Seconds()
}

// covered returns how many nanoseconds of parent's interval the children
// cover, counting overlapping children once.
func covered(parent span, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		if open && x[0] <= curHi {
			curHi = max(curHi, x[1])
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = x[0], x[1], true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// write stores every span as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// opLedger sums, over the traced ops' root spans, their wall time and the
// part of it their child spans (the calls into named layers) cover.
func opLedger(t *tracer) (wall, attributed float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	for i, s := range t.spans {
		if s.Parent >= 0 || s.Op < 0 || s.Name != "op" {
			continue
		}
		wall += float64(s.End-s.Start) / 1e9
		attributed += float64(covered(s, kids[i])) / 1e9
	}
	return wall, attributed
}
