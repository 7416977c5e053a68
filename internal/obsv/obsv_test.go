package obsv

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestKindStringsTotal(t *testing.T) {
	seen := map[string]bool{}
	for k := Kind(0); k < NumKinds; k++ {
		s := k.String()
		if s == "" || strings.Contains(s, "invalid") {
			t.Fatalf("kind %d has no name", k)
		}
		if seen[s] {
			t.Fatalf("duplicate kind name %q", s)
		}
		seen[s] = true
	}
	if NumKinds.String() != "kind-invalid" {
		t.Errorf("out-of-range kind name = %q", NumKinds.String())
	}
}

func TestCollectorCountsAndLimit(t *testing.T) {
	c := NewCollector(3)
	for i := 0; i < 5; i++ {
		c.Emit(Event{Cycle: int64(i), Kind: KindRetire})
	}
	c.Emit(Event{Kind: KindClusterLoad})
	if got := c.Count(KindRetire); got != 5 {
		t.Errorf("retire count = %d, want 5 (counts must include dropped events)", got)
	}
	if got := len(c.Events()); got != 3 {
		t.Errorf("retained = %d, want 3", got)
	}
	if got := c.Dropped(); got != 3 {
		t.Errorf("dropped = %d, want 3", got)
	}
	if got := c.Total(); got != 6 {
		t.Errorf("total = %d, want 6", got)
	}
	c.Reset()
	if c.Total() != 0 || len(c.Events()) != 0 || c.Dropped() != 0 {
		t.Error("Reset did not empty the collector")
	}
}

func TestTeeFansOutAndCollapses(t *testing.T) {
	a, b := NewCollector(0), NewCollector(0)
	o := Tee(a, nil, b)
	o.Emit(Event{Kind: KindFetch})
	if a.Total() != 1 || b.Total() != 1 {
		t.Error("tee did not reach both observers")
	}
	if Tee(nil, nil) != nil {
		t.Error("Tee of nils should be nil (observability off)")
	}
	if Tee(a) != Observer(a) {
		t.Error("single-target Tee should collapse to the target")
	}
	Nop{}.Emit(Event{}) // must not panic
}

func TestIntervalHist(t *testing.T) {
	var h IntervalHist
	for _, v := range []int64{0, 1, 1, 2, 3, 7, 100, -5} {
		h.Observe(v)
	}
	if h.Count() != 8 {
		t.Errorf("count = %d", h.Count())
	}
	if h.Min() != 0 || h.Max() != 100 {
		t.Errorf("min/max = %d/%d", h.Min(), h.Max())
	}
	if q := h.Quantile(0.5); q < 1 || q > 3 {
		t.Errorf("p50 bound = %d, want within [1,3]", q)
	}
	if q := h.Quantile(1.0); q < 100 {
		t.Errorf("p100 bound = %d, want >= 100", q)
	}
	var empty IntervalHist
	if empty.Mean() != 0 || empty.Quantile(0.9) != 0 {
		t.Error("empty hist should report zeros")
	}
}

func TestRegistryFromEvents(t *testing.T) {
	r := NewRegistry(10)
	r.Emit(Event{Cycle: 5, Kind: KindRetire, Val: 3})
	r.Emit(Event{Cycle: 6, Kind: KindRetire, Val: 5})
	r.Emit(Event{Cycle: 7, Kind: KindClusterOccupancy, Val: 2})
	r.Emit(Event{Cycle: 8, Kind: KindClusterOccupancy, Val: 3})  // inside window: gauge only
	r.Emit(Event{Cycle: 40, Kind: KindClusterOccupancy, Val: 4}) // new sample
	if got := r.Counter("ev/retire"); got != 2 {
		t.Errorf("ev/retire = %d", got)
	}
	if got := r.Gauge("cluster-occupancy"); got != 4 {
		t.Errorf("gauge = %d", got)
	}
	if got := len(r.Series()); got != 2 {
		t.Errorf("series rows = %d, want 2 (downsampled)", got)
	}
	if h := r.Hist("retire/latency"); h == nil || h.Count() != 2 {
		t.Errorf("retire latency hist = %+v", h)
	}

	snap := r.Snapshot()
	r.Emit(Event{Cycle: 100, Kind: KindRetire, Val: 1})
	if snap.Counters["ev/retire"] != 2 {
		t.Error("snapshot mutated by later emits")
	}
	if h := snap.Hists["retire/latency"]; h.Count() != 2 {
		t.Error("snapshot histogram mutated by later emits")
	}

	var csv bytes.Buffer
	if err := r.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	want := "cycle,name,value\n7,cluster-occupancy,2\n40,cluster-occupancy,4\n"
	if csv.String() != want {
		t.Errorf("csv:\n%s\nwant:\n%s", csv.String(), want)
	}

	sum := r.Summary()
	for _, frag := range []string{"ev/retire", "cluster-occupancy", "retire/latency", "p99"} {
		if !strings.Contains(sum, frag) {
			t.Errorf("summary missing %q:\n%s", frag, sum)
		}
	}
}

// TestChromeTraceRoundTrip is the schema acceptance test: an exported
// trace must decode and validate, and the decoded events must carry
// the fields Perfetto needs (displayTimeUnit, pid/tid/ts/ph).
func TestChromeTraceRoundTrip(t *testing.T) {
	c := NewCollector(0)
	c.Emit(Event{Cycle: 10, Kind: KindRetire, Unit: 0, Loc: 1, PC: 0x40, Val: 4})
	c.Emit(Event{Cycle: 12, Kind: KindClusterLoad, Unit: 0, Loc: 0, Addr: 0x80})
	c.Emit(Event{Cycle: 20, Kind: KindROBOccupancy, Unit: 1, Val: 17})
	c.Emit(Event{Cycle: 21, Kind: KindMispredict, Unit: 1, PC: 0x44, Addr: 0x90})

	var buf bytes.Buffer
	if err := c.WriteChromeTrace(&buf, ChromeTraceOptions{UnitNames: []string{"ring 0", "core 1"}}); err != nil {
		t.Fatal(err)
	}
	doc, err := DecodeChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := doc.Validate(); err != nil {
		t.Fatal(err)
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	// 2 metadata + 4 events.
	if len(doc.TraceEvents) != 6 {
		t.Fatalf("events = %d, want 6", len(doc.TraceEvents))
	}
	byPhase := map[string]int{}
	for _, e := range doc.TraceEvents {
		byPhase[e.Ph]++
	}
	if byPhase["M"] != 2 || byPhase["X"] != 1 || byPhase["C"] != 1 || byPhase["i"] != 2 {
		t.Errorf("phase mix = %v", byPhase)
	}
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" && (e.Ts != 6 || e.Dur != 4) {
			t.Errorf("retire slice ts/dur = %v/%v, want 6/4 (execute-start anchored)", e.Ts, e.Dur)
		}
	}
}

func TestChromeTraceValidateRejects(t *testing.T) {
	cases := []struct{ name, doc string }{
		{"bad unit", `{"displayTimeUnit":"sec","traceEvents":[{"name":"x","ph":"i","ts":0,"pid":0,"tid":0}]}`},
		{"empty", `{"displayTimeUnit":"ns","traceEvents":[]}`},
		{"bad phase", `{"displayTimeUnit":"ns","traceEvents":[{"name":"x","ph":"Z","ts":0,"pid":0,"tid":0}]}`},
		{"negative ts", `{"displayTimeUnit":"ns","traceEvents":[{"name":"x","ph":"i","ts":-1,"pid":0,"tid":0}]}`},
		{"missing name", `{"displayTimeUnit":"ns","traceEvents":[{"ph":"i","ts":0,"pid":0,"tid":0}]}`},
	}
	for _, c := range cases {
		doc, err := DecodeChromeTrace(strings.NewReader(c.doc))
		if err != nil {
			t.Fatalf("%s: decode: %v", c.name, err)
		}
		if err := doc.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid document", c.name)
		}
	}
}

// registryScript drives a Registry through a fixed stream holding every
// event kind, interleaved with user Inc/SetGauge/Observe calls on the
// names the stream derives, and takes a Snapshot midway. It returns the
// registry and the mid-stream snapshot.
func registryScript() (*Registry, *Snapshot) {
	r := NewRegistry(16)
	emit := func(cycle int64, k Kind, val int64) {
		r.Emit(Event{Cycle: cycle, Kind: k, Val: val})
	}
	r.Inc("ev/retire", 10) // a user counter the stream will share
	emit(1, KindLSQOccupancy, 3)
	emit(2, KindCommit, 6)
	r.Observe("retire/latency", 40) // user hist before any retire event
	r.SetGauge("cluster-occupancy", 7)
	r.SetGauge("user/gauge", -2)
	for k := Kind(0); k < NumKinds; k++ {
		emit(int64(3+k), k, int64(k)+1)
	}
	emit(10, KindClusterOccupancy, 5) // inside the window: gauge only
	r.Inc("ev/retire", 10)
	r.Observe("user/hist", 9)
	snap := r.Snapshot()
	emit(40, KindRetire, 2)
	emit(41, KindROBOccupancy, 30)
	r.SetGauge("cluster-occupancy", 99)
	emit(42, KindClusterOccupancy, 8) // new sample: 42-19 >= 16
	emit(43, KindCommit, 0)
	emit(30, KindLSQOccupancy, 1) // inside the window: gauge only
	r.Inc("ev/fetch", 1)
	return r, snap
}

// hist returns an IntervalHist holding vs.
func hist(vs ...int64) IntervalHist {
	var h IntervalHist
	for _, v := range vs {
		h.Observe(v)
	}
	return h
}

// TestRegistryOutputsPinned fixes every output of a Registry fed by
// registryScript: counters shared by the event stream and Inc, the
// first-use order of gauges and histograms that Summary prints, the
// downsampled timeseries, and a mid-stream Snapshot that later events
// do not reach.
func TestRegistryOutputsPinned(t *testing.T) {
	r, snap := registryScript()

	counters := func(retire, clusterOcc, commit, lsqOcc, robOcc, fetch uint64) map[string]uint64 {
		m := map[string]uint64{}
		for k := Kind(0); k < NumKinds; k++ {
			m["ev/"+k.String()] = 1
		}
		m["ev/retire"] = retire
		m["ev/cluster-occupancy"] = clusterOcc
		m["ev/commit"] = commit
		m["ev/lsq-occupancy"] = lsqOcc
		m["ev/rob-occupancy"] = robOcc
		m["ev/fetch"] = fetch
		return m
	}
	mid := []Sample{
		{1, "lsq-occupancy", 3},
		{19, "cluster-occupancy", 17},
		{20, "rob-occupancy", 18},
		{21, "iq-occupancy", 19},
		{22, "lsq-occupancy", 20},
	}
	wantSnap := &Snapshot{
		Counters: counters(21, 2, 2, 2, 1, 1),
		Gauges: map[string]int64{
			"lsq-occupancy": 20, "cluster-occupancy": 5, "user/gauge": -2,
			"rob-occupancy": 18, "iq-occupancy": 19,
		},
		Hists: map[string]IntervalHist{
			"commit/latency": hist(6, 14),
			"retire/latency": hist(40, 8),
			"user/hist":      hist(9),
		},
		Series: mid,
	}
	if !reflect.DeepEqual(snap, wantSnap) {
		t.Errorf("mid-stream snapshot:\n got %+v\nwant %+v", snap, wantSnap)
	}

	wantEnd := &Snapshot{
		Counters: counters(22, 3, 3, 3, 2, 2),
		Gauges: map[string]int64{
			"lsq-occupancy": 1, "cluster-occupancy": 8, "user/gauge": -2,
			"rob-occupancy": 30, "iq-occupancy": 19,
		},
		Hists: map[string]IntervalHist{
			"commit/latency": hist(6, 14, 0),
			"retire/latency": hist(40, 8, 2),
			"user/hist":      hist(9),
		},
		Series: append(append([]Sample(nil), mid...),
			Sample{41, "rob-occupancy", 30},
			Sample{42, "cluster-occupancy", 8}),
	}
	if got := r.Snapshot(); !reflect.DeepEqual(got, wantEnd) {
		t.Errorf("final snapshot:\n got %+v\nwant %+v", got, wantEnd)
	}
	if !reflect.DeepEqual(r.Series(), wantEnd.Series) {
		t.Errorf("Series() = %+v, want %+v", r.Series(), wantEnd.Series)
	}
	for name, want := range wantEnd.Counters {
		if got := r.Counter(name); got != want {
			t.Errorf("Counter(%q) = %d, want %d", name, got, want)
		}
	}
	for name, want := range wantEnd.Gauges {
		if got := r.Gauge(name); got != want {
			t.Errorf("Gauge(%q) = %d, want %d", name, got, want)
		}
	}
	for name, want := range wantEnd.Hists {
		if got := r.Hist(name); got == nil || *got != want {
			t.Errorf("Hist(%q) = %+v, want %+v", name, got, want)
		}
	}
	if r.Counter("ev/absent") != 0 || r.Gauge("absent") != 0 || r.Hist("absent") != nil {
		t.Error("absent metrics must read as 0, 0 and nil")
	}

	var csv bytes.Buffer
	if err := r.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	const wantCSV = `cycle,name,value
1,lsq-occupancy,3
19,cluster-occupancy,17
20,rob-occupancy,18
21,iq-occupancy,19
22,lsq-occupancy,20
41,rob-occupancy,30
42,cluster-occupancy,8
`
	if csv.String() != wantCSV {
		t.Errorf("csv:\n%s\nwant:\n%s", csv.String(), wantCSV)
	}

	const wantSummary = `counters
name                  count
--------------------  -----
ev/cluster-evict      1    
ev/cluster-load       1    
ev/cluster-occupancy  3    
ev/cluster-reuse      1    
ev/commit             3    
ev/fetch              2    
ev/flane-xfer         1    
ev/flush              1    
ev/iq-occupancy       1    
ev/issue              1    
ev/lane-xfer          1    
ev/lsq-occupancy      3    
ev/mispredict         1    
ev/pe-disable         1    
ev/pe-enable          1    
ev/rename             1    
ev/retire             22   
ev/rob-occupancy      2    
ev/simt-thread        1    
ev/writeback          1    

gauges (last value)
name               value
-----------------  -----
lsq-occupancy      1    
cluster-occupancy  8    
user/gauge         -2   
rob-occupancy      30   
iq-occupancy       19   

histograms
name            count  mean   p50<=  p99<=  max
--------------  -----  -----  -----  -----  ---
commit/latency  3      6.67   7      15     14 
retire/latency  3      16.67  15     63     40 
user/hist       1      9.00   15     15     9  
`
	if got := r.Summary(); got != wantSummary {
		t.Errorf("summary:\n%s\nwant:\n%s", got, wantSummary)
	}
}
