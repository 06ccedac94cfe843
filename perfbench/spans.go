package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent is 0 for a request's root span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write puts them in one file at the end.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	ids   int64
	reqs  int64
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// id reserves a span id, so children can name a parent that has not
// ended yet.
func (t *tracer) id() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ids++
	return t.ids
}

// req returns a fresh request id.
func (t *tracer) req() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqs++
	return t.reqs
}

func (t *tracer) add(id, parent, req int64, name string, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{id, parent, req, name, int64(start.Sub(t.epoch)), int64(end.Sub(t.epoch))})
}

// do runs fn as a span of its own and returns fn's error.
func (t *tracer) do(name string, parent, req int64, fn func() error) error {
	id := t.id()
	start := time.Now()
	err := fn()
	t.add(id, parent, req, name, start, time.Now())
	return err
}

// durations returns every span of the name, in the order they ended.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

func (t *tracer) total(name string) time.Duration {
	var sum time.Duration
	for _, d := range t.durations(name) {
		sum += d
	}
	return sum
}

// self returns the span's duration minus covered(id).
func (t *tracer) self(id int64) time.Duration {
	t.mu.Lock()
	var dur time.Duration
	for _, s := range t.spans {
		if s.ID == id {
			dur = time.Duration(s.End - s.Start)
		}
	}
	t.mu.Unlock()
	return dur - t.covered(id)
}

// covered returns how much of the span's interval its child spans
// cover, overlapping children counted once.
func (t *tracer) covered(id int64) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var parent span
	var kids [][2]int64
	for _, s := range t.spans {
		if s.ID == id {
			parent = s
		} else if s.Parent == id {
			kids = append(kids, [2]int64{s.Start, s.End})
		}
	}
	slices.SortFunc(kids, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	covered, reach := int64(0), parent.Start
	for _, k := range kids {
		lo, hi := max(k[0], reach), min(k[1], parent.End)
		if hi > lo {
			covered += hi - lo
			reach = hi
		}
	}
	return time.Duration(covered)
}

// write stores the spans as JSON lines, one span a line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
