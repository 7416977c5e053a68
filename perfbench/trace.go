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

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself carries no spans).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Op     int    `json:"op"`     // ID of the root span of the operation
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was made
	End    int64  `json:"end_ns"`
}

// tracer keeps every span in memory until the run ends. A nil *tracer
// records nothing, so untraced code paths call it unconditionally.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	op := id
	if parent > 0 {
		op = t.spans[parent-1].Op
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return id
}

// end closes the span.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// timed runs f inside a span and returns how long f took.
func (t *tracer) timed(name string, parent int, f func() error) (time.Duration, error) {
	id := t.begin(name, parent)
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	t.end(id)
	return d, err
}

// layerTime is the accumulated time of one span name.
type layerTime struct {
	n     int
	total time.Duration // span durations
	self  time.Duration // durations minus the part covered by child spans
}

// selfTimes aggregates spans by name. A span's self time is its
// duration minus the union of its children's intervals clipped to it;
// children may overlap when they ran on other goroutines.
func (t *tracer) selfTimes() map[string]*layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent > 0 && s.End >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]*layerTime{}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		dur := s.End - s.Start
		covered := coverage(kids[s.ID], s.Start, s.End)
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		lt.n++
		lt.total += time.Duration(dur)
		lt.self += time.Duration(dur - covered)
	}
	return out
}

// coverage is the length of the union of the spans' intervals within
// [lo, hi).
func coverage(ss []span, lo, hi int64) int64 {
	if len(ss) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(ss))
	for _, s := range ss {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curA, curB int64
	curA, curB = -1, -1
	for _, v := range iv {
		if v[0] > curB {
			sum += curB - curA
			curA, curB = v[0], v[1]
		} else if v[1] > curB {
			curB = v[1]
		}
	}
	return sum + curB - curA
}

// dump writes every span as one JSON line.
func (t *tracer) dump(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// printSelfTimes prints the per-layer self-time ledger of a traced run.
func printSelfTimes(lt map[string]*layerTime) {
	names := make([]string, 0, len(lt))
	for n := range lt {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println("perfbench: span self-time ledger (name spans total_ms self_ms)")
	for _, n := range names {
		l := lt[n]
		fmt.Printf("perfbench:   %-28s %6d %10.2f %10.2f\n", n, l.n,
			float64(l.total)/1e6, float64(l.self)/1e6)
	}
}
