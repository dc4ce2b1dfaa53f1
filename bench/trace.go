package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the harness around
// the call (never from inside the program). Times are nanoseconds since
// the tracer's epoch; parent is the index of the span that caused it,
// -1 for a root.
type span struct {
	name       uint16
	parent     int32
	start, end int64
}

// tracer keeps spans in a preallocated in-memory slice and writes them
// out once, when the run ends. A nil *tracer records nothing, so the
// untraced baseline pass runs the same code path without the clock
// reads.
type tracer struct {
	epoch time.Time
	names []string
	ids   map[string]uint16
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), ids: make(map[string]uint16), spans: make([]span, 0, capacity)}
}

// id interns a span name; call it once per name, outside the hot loop.
func (t *tracer) id(name string) uint16 {
	if t == nil {
		return 0
	}
	if id, ok := t.ids[name]; ok {
		return id
	}
	id := uint16(len(t.names))
	t.names = append(t.names, name)
	t.ids[name] = id
	return id
}

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name uint16, parent int32) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: parent, start: int64(time.Since(t.epoch))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	t.spans[i].end = int64(time.Since(t.epoch))
}

// rename relabels a finished span (an observe call that turned out to
// have refreshed the name list is a different kind of work).
func (t *tracer) rename(i int32, name uint16) {
	if t != nil {
		t.spans[i].name = name
	}
}

// spanTotals is the per-name roll-up of a trace.
type spanTotals struct {
	count int
	total time.Duration // sum of span durations
	self  time.Duration // total minus the time covered by child spans
}

// selfTimes rolls spans up by name. A span's self time is its duration
// minus the part of its interval that its direct children cover;
// children that overlap each other are counted once, and a child that
// sticks out of its parent is clipped to it.
func selfTimes(names []string, spans []span) map[string]*spanTotals {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	out := make(map[string]*spanTotals)
	for i, s := range spans {
		dur := s.end - s.start
		covered := int64(0)
		if kids := children[int32(i)]; len(kids) > 0 {
			sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
			edge := s.start // everything before edge is already counted
			for _, k := range kids {
				lo, hi := max(spans[k].start, edge), min(spans[k].end, s.end)
				if hi > lo {
					covered += hi - lo
					edge = hi
				}
			}
		}
		tot := out[names[s.name]]
		if tot == nil {
			tot = &spanTotals{}
			out[names[s.name]] = tot
		}
		tot.count++
		tot.total += time.Duration(dur)
		tot.self += time.Duration(dur - covered)
	}
	return out
}

// writeFile dumps the trace as compact JSON: a name table and one
// [name, parent, start_ns, end_ns] row per span.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "{\"names\":[")
	for i, n := range t.names {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q", n)
	}
	fmt.Fprintf(w, "],\n\"columns\":[\"name\",\"parent\",\"start_ns\",\"end_ns\"],\n\"spans\":[\n")
	var buf []byte
	for i, s := range t.spans {
		buf = buf[:0]
		if i > 0 {
			buf = append(buf, ",\n"...)
		}
		buf = fmt.Appendf(buf, "[%d,%d,%d,%d]", s.name, s.parent, s.start, s.end)
		w.Write(buf)
	}
	fmt.Fprintf(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// values: the smallest value with at least p% of the sample at or below
// it. It returns 0 for an empty sample.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// median is the mean of the two middle values for an even sample —
// what statistics.median computes, so harness and driver agree.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		return sorted[mid]
	}
	return (sorted[mid-1] + sorted[mid]) / 2
}
