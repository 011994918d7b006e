package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer of the program, recorded by the
// benchmark around the call: the program itself carries no tracing.
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Parent int    `json:"parent"` // index of the parent span in the trace, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // duration minus the time the child spans cover
}

// recorder collects the spans of one goroutine. A nil recorder records
// nothing, so one op function serves the traced and untraced phases.
type recorder struct {
	t0    time.Time
	spans []span
}

// begin opens a span and returns its id (-1 on a nil recorder).
func (r *recorder) begin(name string, op int64, parent int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Op: op, Parent: parent, Start: int64(time.Since(r.t0))})
	return len(r.spans) - 1
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].End = int64(time.Since(r.t0))
}

// tracer hands out one recorder per goroutine and merges their spans
// once the traced phase is over. Spans stay in memory until then.
type tracer struct {
	t0   time.Time
	recs []*recorder
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// recorder returns a fresh recorder; call it before starting the
// goroutine that uses it.
func (t *tracer) recorder() *recorder {
	r := &recorder{t0: t.t0}
	t.recs = append(t.recs, r)
	return r
}

// spans merges every recorder's spans into one list, rebasing parent
// ids, and fills in each span's self time.
func (t *tracer) spans() []span {
	var out []span
	for _, r := range t.recs {
		base := len(out)
		for _, s := range r.spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			out = append(out, s)
		}
	}
	children := make(map[int][]int)
	for i, s := range out {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range out {
		out[i].Self = out[i].End - out[i].Start - covered(out, children[i])
	}
	return out
}

// covered is the length of the union of the given spans' intervals.
func covered(all []span, ids []int) int64 {
	if len(ids) == 0 {
		return 0
	}
	iv := make([][2]int64, len(ids))
	for k, id := range ids {
		iv[k] = [2]int64{all[id].Start, all[id].End}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	lo, hi := iv[0][0], iv[0][1]
	for _, v := range iv[1:] {
		if v[0] > hi {
			total += hi - lo
			lo, hi = v[0], v[1]
		} else if v[1] > hi {
			hi = v[1]
		}
	}
	return total + hi - lo
}

// spanStats summarizes the spans of one name.
type spanStats struct {
	count int
	total int64     // ns
	durMS []float64 // sorted span durations in ms
}

func (s spanStats) meanMS() float64 {
	if s.count == 0 {
		return 0
	}
	return float64(s.total) / float64(s.count) / 1e6
}

func summarize(spans []span) map[string]*spanStats {
	out := make(map[string]*spanStats)
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		st.count++
		st.total += s.End - s.Start
		st.durMS = append(st.durMS, float64(s.End-s.Start)/1e6)
	}
	for _, st := range out {
		sort.Float64s(st.durMS)
	}
	return out
}

// writeSpans writes the spans as JSON lines, preceded by a header line
// naming the run, to path.
func writeSpans(path string, header any, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
