package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer: a name, its interval, the span that
// caused it (0 for a root) and the operation (query or request) it serves.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	next  int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent, op int64) (int64, time.Time) {
	now := time.Now()
	if t == nil {
		return 0, now
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now.Sub(t.epoch).Nanoseconds(), End: -1})
	t.mu.Unlock()
	return id, now
}

// end closes span id.
func (t *tracer) end(id int64) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	// Spans are appended in ID order, so the index is ID-1.
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do runs fn inside a span and passes it the span's ID for children.
func (t *tracer) do(name string, parent, op int64, fn func(id int64)) {
	id, _ := t.begin(name, parent, op)
	fn(id)
	t.end(id)
}

// closed returns a copy of the finished spans.
func (t *tracer) closed() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	Count int
	Total time.Duration // sum of span durations
	Self  time.Duration // sum of self times
}

// selfTimes computes, per span name, the total and self time, where a
// span's self time is its duration minus the part of its interval its
// children cover (children may overlap, e.g. concurrent forwards).
func selfTimes(spans []span) map[string]*layerTime {
	kids := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]*layerTime{}
	for _, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		d := s.End - s.Start
		lt.Count++
		lt.Total += time.Duration(d)
		lt.Self += time.Duration(d - covered(kids[s.ID], s.Start, s.End))
	}
	return out
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := [2]int64{-1, -1}
	flush := func() {
		a, b := max(cur[0], lo), min(cur[1], hi)
		if b > a {
			total += b - a
		}
	}
	for _, iv := range ivs {
		if iv[0] > cur[1] {
			flush()
			cur = iv
		} else if iv[1] > cur[1] {
			cur[1] = iv[1]
		}
	}
	flush()
	return total
}

// meanUS is the mean span duration of name in µs (0 when absent).
func (lt *layerTime) meanUS() float64 {
	if lt == nil || lt.Count == 0 {
		return 0
	}
	return float64(lt.Total.Nanoseconds()) / 1e3 / float64(lt.Count)
}

// writeSpans writes the spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
