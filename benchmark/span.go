package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval at a layer boundary. Spans of one op or
// round share Trace; Parent is the ID of the span that caused this one
// (0 for a root). Times are nanoseconds since the recorder started.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// Recorder keeps spans in memory until the run ends. It is safe for
// concurrent use: transport Send calls arrive from worker goroutines.
type Recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

// NewRecorder starts the recorder's clock.
func NewRecorder() *Recorder { return &Recorder{t0: time.Now()} }

// now is the recorder clock.
func (r *Recorder) now() int64 { return int64(time.Since(r.t0)) }

// Begin opens a span and returns its ID; End closes it.
func (r *Recorder) Begin(name string, parent, trace int) int {
	start := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{ID: len(r.spans) + 1, Parent: parent, Trace: trace, Name: name, Start: start})
	return len(r.spans)
}

// End closes span id.
func (r *Recorder) End(id int) {
	end := r.now()
	r.mu.Lock()
	r.spans[id-1].End = end
	r.mu.Unlock()
}

// Add records a span whose interval the caller measured (a duration the
// callee reported, anchored at start).
func (r *Recorder) Add(name string, parent, trace int, start, end int64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{ID: len(r.spans) + 1, Parent: parent, Trace: trace, Name: name, Start: start, End: end})
	return len(r.spans)
}

// Spans returns a copy of the closed spans.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= s.Start && s.End != 0 {
			out = append(out, s)
		}
	}
	return out
}

// WriteFile writes the spans as JSON.
func (r *Recorder) WriteFile(path string) error {
	data, err := json.Marshal(r.Spans())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval its children cover. Children may overlap each other
// (parallel Send calls) and may stick out of the parent; only the union
// of their intervals inside the parent counts.
func selfTimes(spans []Span) map[int]int64 {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// byName groups span durations and self times by name, in milliseconds.
func byName(spans []Span) (dur, self map[string][]float64) {
	st := selfTimes(spans)
	dur, self = make(map[string][]float64), make(map[string][]float64)
	for _, s := range spans {
		dur[s.Name] = append(dur[s.Name], float64(s.End-s.Start)/1e6)
		self[s.Name] = append(self[s.Name], float64(st[s.ID])/1e6)
	}
	return dur, self
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
