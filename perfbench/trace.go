package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one traced interval at a layer boundary. A span with Calls > 0
// aggregates that many back-to-back calls of one function inside its
// parent (the per-step calls of a replayed cell would otherwise need
// millions of records): Start/End bound the first and last call and Busy
// is their summed duration.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Calls  int64  `json:"calls,omitempty"`
	Busy   int64  `json:"busy_ns,omitempty"`
}

// dur is the time the span covers: its busy time for an aggregate.
func (s *span) dur() int64 {
	if s.Calls > 0 {
		return s.Busy
	}
	return s.End - s.Start
}

// tracer keeps spans in memory for the traced run and writes them out at
// the end. A nil *tracer records nothing, so untraced code paths pay one
// nil check per boundary.
type tracer struct {
	epoch time.Time
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now is the tracer clock: monotonic ns since the tracer started.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span under the innermost open span and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: parent})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = t.now()
	t.stack = t.stack[:len(t.stack)-1]
}

// aggregate records calls back-to-back calls of name under the innermost
// open span.
func (t *tracer) aggregate(name string, start, end, busy, calls int64) {
	if t == nil || calls == 0 {
		return
	}
	t.spans = append(t.spans, span{Name: name, Start: start, End: end,
		Parent: t.stack[len(t.stack)-1], Calls: calls, Busy: busy})
}

// layerTime is one span name's totals over a trace.
type layerTime struct {
	Name  string
	Calls int64
	Self  int64 // ns not covered by child spans
}

// layers sums every span name's calls and self time. Self time is
// the span's duration minus the durations of its children.
func (t *tracer) layers() map[string]*layerTime {
	child := make([]int64, len(t.spans))
	for i := range t.spans {
		if p := t.spans[i].Parent; p >= 0 {
			child[p] += t.spans[i].dur()
		}
	}
	out := map[string]*layerTime{}
	for i := range t.spans {
		s := &t.spans[i]
		l := out[s.Name]
		if l == nil {
			l = &layerTime{Name: s.Name}
			out[s.Name] = l
		}
		calls := s.Calls
		if calls == 0 {
			calls = 1
		}
		l.Calls += calls
		l.Self += s.dur() - child[i]
	}
	return out
}

// durations returns the duration of every span called name, in order.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for i := range t.spans {
		if t.spans[i].Name == name {
			out = append(out, float64(t.spans[i].dur()))
		}
	}
	return out
}

// selfDurations returns the self time of every span called name, in
// order.
func (t *tracer) selfDurations(name string) []float64 {
	child := map[int]int64{}
	for i := range t.spans {
		if p := t.spans[i].Parent; p >= 0 && t.spans[p].Name == name {
			child[p] += t.spans[i].dur()
		}
	}
	var out []float64
	for i := range t.spans {
		if t.spans[i].Name == name {
			out = append(out, float64(t.spans[i].dur()-child[i]))
		}
	}
	return out
}

// write stores the spans as JSON lines in path, creating its directory.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
