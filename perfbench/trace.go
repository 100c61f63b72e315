package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// span is one timed call at a layer boundary. Spans of one operation share
// req; parent is the index of the enclosing span, or -1 for the operation's
// root.
type span struct {
	name       string
	req        int32
	parent     int32
	start, end int64 // ns since the tracer started
}

// tracer keeps the spans of a traced run in memory; they are summarized and
// written out after the run. The benchmark records spans around the calls
// it makes into each layer's public functions; the program itself is not
// instrumented.
type tracer struct {
	t0    time.Time
	spans []span
}

// newTracer preallocates room for capacity spans so recording does not
// allocate inside the window.
func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, req, parent int32) int32 {
	t.spans = append(t.spans, span{name: name, req: req, parent: parent, start: t.now()})
	return int32(len(t.spans) - 1)
}

// end closes the span opened by begin.
func (t *tracer) end(id int32) { t.spans[id].end = t.now() }

// add records a span whose bounds were taken elsewhere.
func (t *tracer) add(name string, req, parent int32, start, end int64) int32 {
	t.spans = append(t.spans, span{name: name, req: req, parent: parent, start: start, end: end})
	return int32(len(t.spans) - 1)
}

// spanTotals summarizes the spans of one name.
type spanTotals struct {
	count       int
	total, self int64 // ns; self excludes the time covered by child spans
}

// meanUS is the mean span duration in microseconds.
func (s spanTotals) meanUS() float64 {
	if s.count == 0 {
		return 0
	}
	return float64(s.total) / float64(s.count) / 1e3
}

// selfUS is the mean self time in microseconds.
func (s spanTotals) selfUS() float64 {
	if s.count == 0 {
		return 0
	}
	return float64(s.self) / float64(s.count) / 1e3
}

// summary aggregates the spans by name. Children of one span never overlap
// (the benchmark is single-threaded), so a span's self time is its duration
// minus the sum of its children's.
func (t *tracer) summary() map[string]spanTotals {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := make(map[string]spanTotals)
	for i, s := range t.spans {
		st := out[s.name]
		st.count++
		st.total += s.end - s.start
		st.self += s.end - s.start - child[i]
		out[s.name] = st
	}
	return out
}

// writeJSONL writes every span as one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i, s := range t.spans {
		fmt.Fprintf(w, "{\"id\":%d,\"name\":%q,\"req\":%d,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d}\n",
			i, s.name, s.req, s.parent, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// overheadPct compares the traced and untraced calls of a traced window,
// which alternates the two: the difference of their median durations as a
// percentage of the untraced median.
func overheadPct(traced, untraced latencies) float64 {
	u := untraced.quantile(0.5)
	if u == 0 {
		return 0
	}
	return 100 * (traced.quantile(0.5) - u) / u
}
