package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
)

// span is one timed interval at a layer boundary. Spans are recorded only
// from this package, around calls into each layer's exported functions.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // span that caused this one; -1 for roots
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Workload string `json:"workload"`
	Chunk    int    `json:"chunk"` // input chunk the span belongs to
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing and reads no clock, which is how the untraced pass runs the same
// code. Sink callbacks reach it from operator goroutines, hence the lock.
type tracer struct {
	workload string
	mu       sync.Mutex
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, chunk int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload, Chunk: chunk, StartNs: nowNs()})
	t.mu.Unlock()
	return id
}

// end closes a span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := nowNs()
	t.mu.Lock()
	t.spans[id].EndNs = now
	t.mu.Unlock()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its direct children cover. Children are clipped to the
// parent and overlapping children are not counted twice.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		self[i] = s.EndNs - s.StartNs
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for p, kids := range children {
		// Children arrive in start order per goroutine but may interleave
		// across goroutines: sweep them by start time.
		sort.SliceStable(kids, func(i, j int) bool { return spans[kids[i]].StartNs < spans[kids[j]].StartNs })
		covered, reach := int64(0), spans[p].StartNs
		for _, k := range kids {
			lo, hi := spans[k].StartNs, spans[k].EndNs
			if lo < reach {
				lo = reach
			}
			if hi > spans[p].EndNs {
				hi = spans[p].EndNs
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[p] -= covered
	}
	return self
}

// spanTotal sums one span name's durations, self times and count.
type spanTotal struct {
	count int
	total int64
	self  int64
}

func totalsByName(spans []span) map[string]*spanTotal {
	self := selfTimes(spans)
	out := map[string]*spanTotal{}
	for i, s := range spans {
		t := out[s.Name]
		if t == nil {
			t = &spanTotal{}
			out[s.Name] = t
		}
		t.count++
		t.total += s.EndNs - s.StartNs
		t.self += self[i]
	}
	return out
}

// writeSpans writes the spans as a JSON array.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
