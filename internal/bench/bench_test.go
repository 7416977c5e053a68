package bench

import (
	"context"
	"math"
	"strings"
	"testing"

	"diag/internal/workloads"
)

// The bench tests assert the *shape* of each reproduced figure — who
// wins, where curves saturate, which component dominates — rather than
// absolute values, per the reproduction brief.

// serial returns a one-worker Runner, the reference regeneration.
func serial() *Runner { return NewRunner(context.Background(), Options{Workers: 1}) }

func TestFig9aShape(t *testing.T) {
	fig, err := serial().Fig9a(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Entries) != 14 {
		t.Fatalf("expected 14 Rodinia rows, got %d", len(fig.Entries))
	}
	g32, g256, g512 := fig.Means["DiAG-32"], fig.Means["DiAG-256"], fig.Means["DiAG-512"]
	// Paper: 0.91x / 1.12x / 1.12x. Band: same ballpark.
	if g32 < 0.6 || g32 > 1.2 {
		t.Errorf("DiAG-32 geomean %.2f outside [0.6, 1.2]", g32)
	}
	if g256 < 0.85 || g256 > 1.45 {
		t.Errorf("DiAG-256 geomean %.2f outside [0.85, 1.45]", g256)
	}
	// More PEs never hurt, and scaling saturates past 256 PEs (§7.2.1:
	// "no noticeable improvement can be gained with more than 256 PEs").
	if g256 < g32 {
		t.Errorf("256 PEs (%.2f) should beat 32 PEs (%.2f)", g256, g32)
	}
	if math.Abs(g512-g256)/g256 > 0.05 {
		t.Errorf("512 PEs (%.2f) should saturate near 256 PEs (%.2f)", g512, g256)
	}
	// DiAG excels on compute-heavy and trails on memory-bound (§7.2.2).
	byName := map[string]Entry{}
	for _, e := range fig.Entries {
		byName[e.Workload] = e
	}
	if byName["kmeans"].Values["DiAG-256"] <= byName["bfs"].Values["DiAG-256"] {
		t.Error("compute-heavy kmeans should beat memory-bound bfs in relative performance")
	}
}

func TestFig9bShape(t *testing.T) {
	fig, err := serial().Fig9b(1)
	if err != nil {
		t.Fatal(err)
	}
	plain, simt := fig.Means["DiAG-512-16x2"], fig.Means["DiAG-512-16x2+SIMT"]
	// Paper: 0.95x plain, 1.2x with SIMT pipelining.
	if plain < 0.7 || plain > 1.5 {
		t.Errorf("multi-thread geomean %.2f outside [0.7, 1.5]", plain)
	}
	if simt <= plain {
		t.Errorf("SIMT pipelining (%.2f) must improve on plain multi-thread (%.2f)", simt, plain)
	}
	if simt < 1.0 {
		t.Errorf("SIMT geomean %.2f should exceed the baseline", simt)
	}
}

func TestFig10aShape(t *testing.T) {
	fig, err := serial().Fig10a(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Entries) != 13 {
		t.Fatalf("expected 13 SPEC rows, got %d", len(fig.Entries))
	}
	g32, g256, g512 := fig.Means["DiAG-32"], fig.Means["DiAG-256"], fig.Means["DiAG-512"]
	// Paper: 0.81x / 0.97x / 0.97x — DiAG roughly matches the baseline
	// at >=256 PEs and trails at 32.
	if g256 < 0.8 || g256 > 1.25 {
		t.Errorf("DiAG-256 geomean %.2f outside [0.8, 1.25]", g256)
	}
	if g32 >= g256 {
		t.Errorf("32 PEs (%.2f) should trail 256 PEs (%.2f)", g32, g256)
	}
	if math.Abs(g512-g256)/g256 > 0.05 {
		t.Errorf("512 (%.2f) vs 256 (%.2f): expected saturation", g512, g256)
	}
	byName := map[string]Entry{}
	for _, e := range fig.Entries {
		byName[e.Workload] = e
	}
	// mcf (pointer chasing) must be among DiAG's worst; x264 (dense int
	// compute) among its best — the paper's per-benchmark trend.
	if byName["mcf"].Values["DiAG-512"] >= byName["x264"].Values["DiAG-512"] {
		t.Error("mcf should trail x264 on DiAG")
	}
}

func TestFig10bShape(t *testing.T) {
	fig, err := serial().Fig10b(1)
	if err != nil {
		t.Fatal(err)
	}
	plain, simt := fig.Means["DiAG-512-16x2"], fig.Means["DiAG-512-16x2+SIMT"]
	if simt <= plain {
		t.Errorf("SIMT (%.2f) must beat plain (%.2f) on SPEC too", simt, plain)
	}
}

func TestFig11Shape(t *testing.T) {
	fig, err := serial().Fig11(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range fig.Entries {
		sum := 0.0
		for _, v := range e.Values {
			sum += v
		}
		if math.Abs(sum-100) > 0.5 {
			t.Errorf("%s: shares sum to %.2f, want 100", e.Workload, sum)
		}
		// Graph traversal dominated by memory/data movement (§7.3.1).
		if e.Workload == "bfs" && e.Values["Memory"] <= e.Values["FP Unit"] {
			t.Error("bfs energy should be memory-dominated")
		}
	}
	byName := map[string]Entry{}
	for _, e := range fig.Entries {
		byName[e.Workload] = e
	}
	// Compute-heavy benchmarks spend more on the FP unit than bfs does.
	if byName["kmeans"].Values["FP Unit"] <= byName["bfs"].Values["FP Unit"] {
		t.Error("kmeans should spend a larger FP share than bfs")
	}
}

func TestFig12Shape(t *testing.T) {
	fig, err := serial().Fig12(1)
	if err != nil {
		t.Fatal(err)
	}
	single, multi, simt := fig.Means["single"], fig.Means["multi"], fig.Means["multi+SIMT"]
	// Paper: 1.51x / 1.35x / 1.63x — efficiency improves in every mode.
	if single < 1.1 || single > 2.2 {
		t.Errorf("single-thread efficiency %.2f outside [1.1, 2.2] (paper 1.51)", single)
	}
	if multi < 1.0 {
		t.Errorf("multi-thread efficiency %.2f should exceed 1 (paper 1.35)", multi)
	}
	if simt < 1.0 {
		t.Errorf("SIMT efficiency %.2f should exceed 1 (paper 1.63)", simt)
	}
}

func TestStallBreakdownShape(t *testing.T) {
	fig, err := serial().StallBreakdown(1)
	if err != nil {
		t.Fatal(err)
	}
	var avg Entry
	for _, e := range fig.Entries {
		if e.Workload == "AVERAGE" {
			avg = e
		}
	}
	if avg.Workload == "" {
		t.Fatal("no AVERAGE row")
	}
	m, c, o := avg.Values["memory %"], avg.Values["control %"], avg.Values["other %"]
	// Paper ordering: memory (73.6) > control (21.1) > other (5.3).
	if !(m > c && c >= o) {
		t.Errorf("stall ordering should be memory > control >= other: %.1f / %.1f / %.1f", m, c, o)
	}
	if m < 50 {
		t.Errorf("memory stalls should dominate (paper 73.6%%), got %.1f%%", m)
	}
}

func TestTables(t *testing.T) {
	t1 := Table1().String()
	for _, frag := range []string{"Rename", "Reg Lanes", "Reorder Buffer", "Scalable"} {
		if !strings.Contains(t1, frag) {
			t.Errorf("Table 1 missing %q", frag)
		}
	}
	t2 := Table2().String()
	for _, frag := range []string{"I4C2", "F4C32", "512", "RV32IMF", "4MB"} {
		if !strings.Contains(t2, frag) {
			t.Errorf("Table 2 missing %q", frag)
		}
	}
	t3 := Table3().String()
	if !strings.Contains(t3, "PCLUSTER") || !strings.Contains(t3, "REGLANE") {
		t.Errorf("Table 3 malformed:\n%s", t3)
	}
}

func TestFigureTableRendering(t *testing.T) {
	fig := &Figure{
		ID: "T", Title: "test", Series: []string{"a"},
		Entries: []Entry{{Workload: "w", Class: "c", Values: map[string]float64{"a": 1.5}}},
	}
	fig.computeMeans()
	out := fig.Table().String()
	if !strings.Contains(out, "1.50") || !strings.Contains(out, "geomean") {
		t.Errorf("figure table:\n%s", out)
	}
}

func TestFigureCSV(t *testing.T) {
	fig := &Figure{
		ID: "T", Title: "test", Series: []string{"a", "b"},
		Entries: []Entry{
			{Workload: "w1", Class: "c", Values: map[string]float64{"a": 1.5, "b": 2}},
			{Workload: "w2", Class: "d", Values: map[string]float64{"a": 0.5, "b": 1}},
		},
	}
	fig.computeMeans()
	out := fig.CSV()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("csv lines = %d:\n%s", len(lines), out)
	}
	if lines[0] != "benchmark,class,a,b" {
		t.Errorf("header %q", lines[0])
	}
	if lines[1] != "w1,c,1.5000,2.0000" {
		t.Errorf("row %q", lines[1])
	}
	if !strings.HasPrefix(lines[3], "geomean,") {
		t.Errorf("means row %q", lines[3])
	}
}

func TestScalingSweepSaturates(t *testing.T) {
	fig, err := serial().ScalingSweep("srad", []int{2, 16, 32}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Entries) != 3 {
		t.Fatalf("rows = %d", len(fig.Entries))
	}
	small := fig.Entries[0].Values["rel. perf"]
	mid := fig.Entries[1].Values["rel. perf"]
	big := fig.Entries[2].Values["rel. perf"]
	if mid <= small {
		t.Errorf("16 clusters (%.2f) should beat 2 (%.2f)", mid, small)
	}
	if math.Abs(big-mid)/mid > 0.05 {
		t.Errorf("scaling should saturate: 32 clusters %.2f vs 16 %.2f", big, mid)
	}
	if _, err := serial().ScalingSweep("nope", []int{2}, 1); err == nil {
		t.Error("unknown workload should error")
	}
}

func TestDescribeListsAll(t *testing.T) {
	out := Describe().String()
	for _, w := range workloads.All() {
		if !strings.Contains(out, w.Name) {
			t.Errorf("describe missing %s", w.Name)
		}
	}
}

// TestScaleStability: doubling the problem size must not flip the
// qualitative result — the Fig 9a geomeans stay in the same band.
func TestScaleStability(t *testing.T) {
	f1, err := serial().Fig9a(1)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := serial().Fig9a(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range f1.Series {
		a, b := f1.Means[s], f2.Means[s]
		if math.Abs(a-b)/a > 0.35 {
			t.Errorf("%s: scale 1 geomean %.2f vs scale 2 %.2f drifted >35%%", s, a, b)
		}
	}
}
