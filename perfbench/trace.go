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

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Rep    string `json:"rep"`      // replication id shared by one replication's spans
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the same replay code runs traced and untraced.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (ids start at 1).
func (t *tracer) begin(name string, parent int, rep string) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Rep: rep,
		Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans)
}

// end closes span id and returns its duration in ns.
func (t *tracer) end(id int) int64 {
	if t == nil {
		return 0
	}
	s := &t.spans[id-1]
	s.End = time.Since(t.t0).Nanoseconds()
	return s.End - s.Start
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its children cover.
func (t *tracer) selfTimes() []int64 {
	children := make([][]int, len(t.spans)+1)
	for i := range t.spans {
		p := t.spans[i].Parent
		children[p] = append(children[p], i)
	}
	self := make([]int64, len(t.spans)+1)
	for i := range t.spans {
		s := &t.spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].Start < t.spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max64(t.spans[k].Start, reach), min64(t.spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// selfByName sums the self time of every span named name that descends
// from root.
func (t *tracer) selfByName(self []int64, root int) map[string]int64 {
	out := make(map[string]int64)
	for i := range t.spans {
		s := &t.spans[i]
		for a := s.ID; a != 0; a = t.spans[a-1].Parent {
			if a == root {
				out[s.Name] += self[s.ID]
				break
			}
		}
	}
	return out
}

// write stores every span as one JSON line.
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
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", path, err)
	}
	return nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
