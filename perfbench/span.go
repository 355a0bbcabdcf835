package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Run    string `json:"run"`    // the run (workload and seed) the span belongs to
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory; write dumps them at the end of the run.
// A nil *tracer records nothing, so untraced code paths call it freely.
type tracer struct {
	run   string
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(run string) *tracer { return &tracer{run: run, epoch: time.Now()} }

// begin opens a span and returns its id and a func that closes it.
func (t *tracer) begin(parent int, layer, name string) (int, func()) {
	if t == nil {
		return 0, func() {}
	}
	start := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name, Layer: layer, Start: start, End: -1})
	t.mu.Unlock()
	return id, func() {
		end := time.Since(t.epoch).Nanoseconds()
		t.mu.Lock()
		t.spans[id-1].End = end
		t.mu.Unlock()
	}
}

// do runs fn inside a span.
func (t *tracer) do(parent int, layer, name string, fn func(id int) error) error {
	id, end := t.begin(parent, layer, name)
	defer end()
	return fn(id)
}

// snapshot returns a copy of the closed spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
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

// write dumps every span as one JSON document.
func (t *tracer) write(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		Run   string `json:"run"`
		Spans []span `json:"spans"`
	}{t.run, t.snapshot()})
}

// selfTimes returns each layer's self time in seconds: for every span, its
// duration minus the part of its interval that its children cover (children
// running in parallel are counted once), summed per layer.
func selfTimes(spans []span) map[string]float64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		covered := coverage(s.Start, s.End, children[s.ID])
		out[s.Layer] += float64(s.End-s.Start-covered) / 1e9
	}
	return out
}

// coverage is the length of the union of the children's intervals, clipped
// to [start, end].
func coverage(start, end int64, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, start), min(k.End, end)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range iv {
		if !open || x[0] > curB {
			if open {
				total += curB - curA
			}
			curA, curB, open = x[0], x[1], true
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// formatSelfTimes renders the per-layer self times, largest first.
func formatSelfTimes(self map[string]float64) string {
	type kv struct {
		k string
		v float64
	}
	var rows []kv
	for k, v := range self {
		rows = append(rows, kv{k, v})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].v > rows[j].v })
	s := "span self time by layer:\n"
	for _, r := range rows {
		s += fmt.Sprintf("  %-12s %10.4f s\n", r.k, r.v)
	}
	return s
}
