package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one operation share
// Op; Parent is the enclosing span's ID, 0 for an operation's root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory. A nil *tracer records nothing, so the
// same code runs traced and untraced.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex // guards spans
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// spanRef is an open span; end records it.
type spanRef struct {
	t              *tracer
	id, op, parent int64
	name           string
	start          int64
}

// newOp returns a fresh operation ID, 0 when not tracing.
func (t *tracer) newOp() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// start opens the root span of an operation.
func (t *tracer) start(op int64, name string) spanRef { return t.open(op, 0, name) }

func (t *tracer) open(op, parent int64, name string) spanRef {
	if t == nil {
		return spanRef{}
	}
	return spanRef{t: t, id: t.ids.Add(1), op: op, parent: parent, name: name, start: int64(time.Since(t.epoch))}
}

// child opens a span nested in s.
func (s spanRef) child(name string) spanRef { return s.t.open(s.op, s.id, name) }

// end closes the span and records it.
func (s spanRef) end() {
	if s.t == nil {
		return
	}
	sp := span{ID: s.id, Parent: s.parent, Op: s.op, Name: s.name, Start: s.start, End: int64(time.Since(s.t.epoch))}
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, sp)
	s.t.mu.Unlock()
}

// byOp groups the recorded spans by operation.
func (t *tracer) byOp() map[int64][]span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[int64][]span)
	for _, s := range t.spans {
		out[s.Op] = append(out[s.Op], s)
	}
	return out
}

// writeJSONL writes every recorded span, one JSON object per line, and
// returns how many it wrote.
func (t *tracer) writeJSONL(path string) (int, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return 0, err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	return len(t.spans), f.Close()
}

// sumByName totals span durations by span name.
func sumByName(spans []span) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += s.dur()
	}
	return out
}

// childrenByParent indexes spans by their parent's ID.
func childrenByParent(spans []span) map[int64][]span {
	out := make(map[int64][]span)
	for _, s := range spans {
		out[s.Parent] = append(out[s.Parent], s)
	}
	return out
}

// selfTime is p's duration minus the part of it its children cover.
// Children may overlap one another (calls fanned out over workers) or
// run past p; each instant of p counts once.
func selfTime(p span, children []span) time.Duration {
	type interval struct{ lo, hi int64 }
	var ivs []interval
	for _, c := range children {
		if lo, hi := max(c.Start, p.Start), min(c.End, p.End); lo < hi {
			ivs = append(ivs, interval{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered, reach := int64(0), p.Start
	for _, iv := range ivs {
		if iv.hi <= reach {
			continue
		}
		covered += iv.hi - max(iv.lo, reach)
		reach = iv.hi
	}
	return time.Duration(p.End - p.Start - covered)
}
