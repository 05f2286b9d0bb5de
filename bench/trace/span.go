package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer: name, start, end and the span that
// caused it (-1 for a root).
type span struct {
	name       string
	start, end time.Duration
	parent     int
}

// tracer keeps spans in memory; nothing is written until the run ends.
// A nil tracer records nothing, which is how the untraced twin of a run is
// made.
type tracer struct {
	now func() time.Duration

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	t0 := time.Now()
	return &tracer{now: func() time.Duration { return time.Since(t0) }}
}

// begin opens a span under parent and returns its id; pass it to end and
// to the begin of any call made inside it.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, start: now, parent: parent})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// selfTimes sums, per span name, each span's duration minus the part of it
// its children cover. Children are clipped to the parent and overlapping
// children (calls made from several goroutines) are counted once.
func selfTimes(spans []span) map[string]time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := map[string]time.Duration{}
	for i, s := range spans {
		if s.end < s.start {
			continue // still open when the snapshot was taken
		}
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		var covered time.Duration
		edge := s.start // everything before edge is already counted
		for _, k := range kids {
			from, to := max(spans[k].start, edge), min(spans[k].end, s.end)
			if to > from {
				covered += to - from
				edge = to
			}
		}
		out[s.name] += (s.end - s.start) - covered
	}
	return out
}
