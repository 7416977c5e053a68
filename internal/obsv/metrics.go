package obsv

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"

	"diag/internal/stats"
)

// IntervalHist is a power-of-two-bucketed histogram of non-negative
// int64 observations (latencies, occupancies, durations). Bucket i
// holds values whose bit length is i, so bucket boundaries double:
// [0], [1], [2,3], [4,7], … Observation is O(1) and allocation-free.
type IntervalHist struct {
	buckets  [64]uint64
	count    uint64
	sum      int64
	min, max int64
}

// Observe records one value; negative values clamp to 0.
func (h *IntervalHist) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bits.Len64(uint64(v))]++
}

// Count returns the number of observations.
func (h *IntervalHist) Count() uint64 { return h.count }

// Sum returns the total of all observations (0 if empty) — the exact
// numerator of Mean, exposed so exporters can fold histograms together
// without losing precision to the float mean.
func (h *IntervalHist) Sum() int64 { return h.sum }

// Mean returns the arithmetic mean of the observations, or 0 if empty.
func (h *IntervalHist) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Min returns the smallest observation (0 if empty).
func (h *IntervalHist) Min() int64 { return h.min }

// Max returns the largest observation (0 if empty).
func (h *IntervalHist) Max() int64 { return h.max }

// Quantile returns an upper bound on the q-quantile (0 <= q <= 1): the
// inclusive upper edge of the bucket containing the q-th observation.
func (h *IntervalHist) Quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	target := uint64(q * float64(h.count))
	if target >= h.count {
		target = h.count - 1
	}
	var seen uint64
	for i, n := range h.buckets {
		seen += n
		if n > 0 && seen > target {
			if i == 0 {
				return 0
			}
			return (1 << uint(i)) - 1
		}
	}
	return h.max
}

// Sample is one timeseries row: the value of a named gauge at a cycle.
type Sample struct {
	Cycle int64
	Name  string
	Value int64
}

// Registry is the metrics side of the observability layer: monotonic
// counters, last-value gauges, interval histograms, and a downsampled
// occupancy timeseries. It implements Observer, deriving standard
// metrics from the event stream:
//
//   - a counter per event kind ("ev/<kind>");
//   - a gauge plus timeseries per occupancy kind, sampled at most once
//     per SampleEvery cycles per series;
//   - latency histograms for retire (ring) and commit (baseline)
//     durations ("retire/latency", "commit/latency").
//
// Callers may also record their own metrics with Inc/SetGauge/Observe.
// A Registry is snapshotable mid-run: Snapshot deep-copies every
// metric, so a long campaign can be observed while it executes. The
// Registry itself is not goroutine-safe — snapshot from the machine's
// own goroutine (e.g. from a PreStep hook) or after Run returns.
type Registry struct {
	// SampleEvery is the minimum cycle spacing between retained
	// timeseries samples of one series (default 256; see NewRegistry).
	SampleEvery int64

	names    []string // counter insertion order
	counters map[string]*uint64
	gauges   map[string]*int64
	gnames   []string
	hists    map[string]*IntervalHist
	hnames   []string

	series []Sample

	// Per-kind handles into the maps above, filled by a kind's first
	// event so that Emit builds no name and looks nothing up.
	kindCounter [NumKinds]*uint64
	kindGauge   [NumKinds]*int64
	kindHist    [NumKinds]*IntervalHist
	lastSample  [NumKinds]int64 // cycle of the series' last retained sample
	sampled     [NumKinds]bool  // whether the series has a retained sample
}

// NewRegistry returns an empty registry whose occupancy timeseries
// keeps at most one sample per series per sampleEvery cycles
// (sampleEvery <= 0 selects the default of 256 — fine-grained enough
// to plot, coarse enough to stay small).
func NewRegistry(sampleEvery int64) *Registry {
	if sampleEvery <= 0 {
		sampleEvery = 256
	}
	return &Registry{
		SampleEvery: sampleEvery,
		counters:    make(map[string]*uint64),
		gauges:      make(map[string]*int64),
		hists:       make(map[string]*IntervalHist),
	}
}

// handle returns the metric called name in m, creating it on first use
// and recording it in order, the first-use order Summary prints.
func handle[T any](m map[string]*T, order *[]string, name string) *T {
	p, ok := m[name]
	if !ok {
		p = new(T)
		m[name] = p
		*order = append(*order, name)
	}
	return p
}

// Inc adds n to the named monotonic counter, creating it on first use.
func (r *Registry) Inc(name string, n uint64) { *handle(r.counters, &r.names, name) += n }

// Counter returns the counter's value (0 if absent).
func (r *Registry) Counter(name string) uint64 {
	if c := r.counters[name]; c != nil {
		return *c
	}
	return 0
}

// SetGauge records the gauge's latest value, creating it on first use.
func (r *Registry) SetGauge(name string, v int64) { *handle(r.gauges, &r.gnames, name) = v }

// Gauge returns the gauge's last value (0 if absent).
func (r *Registry) Gauge(name string) int64 {
	if g := r.gauges[name]; g != nil {
		return *g
	}
	return 0
}

// Observe records v into the named interval histogram, creating it on
// first use.
func (r *Registry) Observe(name string, v int64) { handle(r.hists, &r.hnames, name).Observe(v) }

// Hist returns the named histogram, or nil if absent.
func (r *Registry) Hist(name string) *IntervalHist { return r.hists[name] }

// resolve fills kind k's handles on its first event through handle, as
// Inc, SetGauge and Observe do: the event stream and a caller share one
// metric per name, and first-use order is unchanged.
func (r *Registry) resolve(k Kind) *uint64 {
	c := handle(r.counters, &r.names, "ev/"+kindNames[k])
	r.kindCounter[k] = c
	switch {
	case k.Occupancy():
		r.kindGauge[k] = handle(r.gauges, &r.gnames, kindNames[k])
	case k == KindRetire:
		r.kindHist[k] = handle(r.hists, &r.hnames, "retire/latency")
	case k == KindCommit:
		r.kindHist[k] = handle(r.hists, &r.hnames, "commit/latency")
	}
	return c
}

// Emit implements Observer: every event bumps its kind counter;
// occupancy kinds feed the gauge + timeseries; retire/commit durations
// feed latency histograms. After a kind's first event it neither
// allocates nor looks up a map (the timeseries append aside).
func (r *Registry) Emit(e Event) {
	k := e.Kind % NumKinds
	c := r.kindCounter[k]
	if c == nil {
		c = r.resolve(k)
	}
	*c++
	if g := r.kindGauge[k]; g != nil {
		*g = e.Val
		r.sample(k, e.Cycle, e.Val)
	} else if h := r.kindHist[k]; h != nil {
		h.Observe(e.Val)
	}
}

// sample appends a timeseries row for occupancy kind k if its
// downsampling window has passed.
func (r *Registry) sample(k Kind, cycle, v int64) {
	if r.sampled[k] && cycle-r.lastSample[k] < r.SampleEvery {
		return
	}
	r.sampled[k] = true
	r.lastSample[k] = cycle
	r.series = append(r.series, Sample{Cycle: cycle, Name: kindNames[k], Value: v})
}

// Series returns the retained timeseries rows in emission order. The
// slice is the registry's backing store; callers must not mutate it.
func (r *Registry) Series() []Sample { return r.series }

// Snapshot is a deep, immutable copy of a Registry's state at one
// moment of a run.
type Snapshot struct {
	Counters map[string]uint64
	Gauges   map[string]int64
	Hists    map[string]IntervalHist
	Series   []Sample
}

// Snapshot deep-copies every metric, safe to retain and inspect while
// the run continues to mutate the live registry.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{
		Counters: make(map[string]uint64, len(r.counters)),
		Gauges:   make(map[string]int64, len(r.gauges)),
		Hists:    make(map[string]IntervalHist, len(r.hists)),
		Series:   append([]Sample(nil), r.series...),
	}
	for k, v := range r.counters {
		s.Counters[k] = *v
	}
	for k, v := range r.gauges {
		s.Gauges[k] = *v
	}
	for k, h := range r.hists {
		s.Hists[k] = *h
	}
	return s
}

// WriteCSV emits the occupancy timeseries as "cycle,name,value" rows
// with a header, ready for any plotting tool.
func (r *Registry) WriteCSV(w io.Writer) error {
	if _, err := io.WriteString(w, "cycle,name,value\n"); err != nil {
		return err
	}
	for _, s := range r.series {
		if _, err := fmt.Fprintf(w, "%d,%s,%d\n", s.Cycle, s.Name, s.Value); err != nil {
			return err
		}
	}
	return nil
}

// Summary renders the registry as fixed-width text tables: event and
// user counters (insertion order), gauges, and histogram digests.
func (r *Registry) Summary() string {
	var b strings.Builder
	tab := stats.NewTable("counters", "name", "count")
	names := append([]string(nil), r.names...)
	sort.Strings(names)
	for _, n := range names {
		tab.AddRowf(n, *r.counters[n])
	}
	b.WriteString(tab.String())
	if len(r.gnames) > 0 {
		b.WriteByte('\n')
		tab = stats.NewTable("gauges (last value)", "name", "value")
		for _, n := range r.gnames {
			tab.AddRowf(n, *r.gauges[n])
		}
		b.WriteString(tab.String())
	}
	if len(r.hnames) > 0 {
		b.WriteByte('\n')
		tab = stats.NewTable("histograms", "name", "count", "mean", "p50<=", "p99<=", "max")
		for _, n := range r.hnames {
			h := r.hists[n]
			tab.AddRowf(n, h.Count(), h.Mean(), h.Quantile(0.5), h.Quantile(0.99), h.Max())
		}
		b.WriteString(tab.String())
	}
	return b.String()
}
