package diag_test

// One testing.B benchmark per paper table and figure (DESIGN.md §3),
// plus ablation benchmarks for the design choices the DiAG model makes.
// Run with: go test -bench=. -benchmem
//
// Each figure benchmark regenerates the complete experiment (all
// benchmarks × machines for that figure) once per iteration and reports
// the headline geometric means via b.ReportMetric, so the paper-vs-
// measured comparison appears directly in benchmark output.

import (
	"strings"
	"testing"

	"diag"
	"diag/internal/bench"
	"diag/internal/workloads"
)

func reportMeans(b *testing.B, fig *diag.Figure) {
	b.Helper()
	for _, s := range fig.Series {
		unit := strings.ReplaceAll(s, " ", "-") + ":geomean"
		b.ReportMetric(fig.Means[s], unit)
	}
}

func benchFigure(b *testing.B, f func(int) (*diag.Figure, error)) {
	b.Helper()
	var fig *diag.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = f(1)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportMeans(b, fig)
}

// BenchmarkFig9aRodiniaSingleThread regenerates Figure 9a (paper means:
// 0.91x / 1.12x / 1.12x for 32/256/512 PEs).
func BenchmarkFig9aRodiniaSingleThread(b *testing.B) { benchFigure(b, diag.Fig9a) }

// BenchmarkFig9bRodiniaMultiThread regenerates Figure 9b (paper means:
// 0.95x plain, 1.2x with SIMT pipelining).
func BenchmarkFig9bRodiniaMultiThread(b *testing.B) { benchFigure(b, diag.Fig9b) }

// BenchmarkFig10aSPECSingleThread regenerates Figure 10a (paper means:
// 0.81x / 0.97x / 0.97x).
func BenchmarkFig10aSPECSingleThread(b *testing.B) { benchFigure(b, diag.Fig10a) }

// BenchmarkFig10bSPECMultiThread regenerates Figure 10b (paper means:
// 0.97x plain, 1.15x with SIMT).
func BenchmarkFig10bSPECMultiThread(b *testing.B) { benchFigure(b, diag.Fig10b) }

// BenchmarkFig11EnergyBreakdown regenerates Figure 11 (energy shares by
// component; paper: compute-heavy spend ~half on functional units,
// graph traversal dominated by memory).
func BenchmarkFig11EnergyBreakdown(b *testing.B) { benchFigure(b, diag.Fig11) }

// BenchmarkFig12EnergyEfficiency regenerates Figure 12 (paper means:
// 1.51x single, 1.35x multi, 1.63x with SIMT).
func BenchmarkFig12EnergyEfficiency(b *testing.B) { benchFigure(b, diag.Fig12) }

// BenchmarkStallBreakdown regenerates the §7.3.2 statistic (paper:
// 73.6% memory / 21.1% control / 5.3% other).
func BenchmarkStallBreakdown(b *testing.B) { benchFigure(b, diag.StallBreakdown) }

// BenchmarkTable1Comparison renders Table 1.
func BenchmarkTable1Comparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if diag.Table1().String() == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable2Configurations renders Table 2.
func BenchmarkTable2Configurations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if diag.Table2().String() == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable3AreaPower renders Table 3 from the area/power model and
// reports the headline values (paper: 93.07 mm², 74.30 W for F4C32).
func BenchmarkTable3AreaPower(b *testing.B) {
	var top float64
	for i := 0; i < b.N; i++ {
		r := diag.Area(diag.F4C32())
		top = r.Components[0].AreaUM2
	}
	b.ReportMetric(top/1e6, "mm2:F4C32")
}

// BenchmarkAssembler measures assembly throughput on a workload-sized
// source.
func BenchmarkAssembler(b *testing.B) {
	w, _ := diag.WorkloadByName("kmeans")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Build(diag.WorkloadParams{Scale: 1, Threads: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- ablation benchmarks (design choices called out in DESIGN.md) ----

// ablate runs hotspot on a modified F4C16 and reports cycles.
func ablate(b *testing.B, mutate func(*diag.Config)) {
	b.Helper()
	w, _ := diag.WorkloadByName("hotspot")
	p := diag.WorkloadParams{Scale: 1, Threads: 1}
	img, err := w.Build(p)
	if err != nil {
		b.Fatal(err)
	}
	cfg := diag.F4C16()
	mutate(&cfg)
	b.ResetTimer()
	var cycles int64
	for i := 0; i < b.N; i++ {
		st, _, err := diag.Run(cfg, img)
		if err != nil {
			b.Fatal(err)
		}
		cycles = st.Cycles
	}
	b.ReportMetric(float64(cycles), "cycles")
}

// BenchmarkAblationBaselineHotspot is the reference point for the
// ablations below.
func BenchmarkAblationBaselineHotspot(b *testing.B) {
	ablate(b, func(*diag.Config) {})
}

// BenchmarkAblationNoMemoryLanes removes the cluster-level memory lanes
// (§5.2): every access goes straight to the banked L1D.
func BenchmarkAblationNoMemoryLanes(b *testing.B) {
	ablate(b, func(c *diag.Config) { c.MemLaneLines = 1 })
}

// BenchmarkAblationDenseLaneBuffers inserts a lane buffer at every other
// PE (§6.1.2 discusses buffering every 8): deeper lane pipelining, more
// propagation latency.
func BenchmarkAblationDenseLaneBuffers(b *testing.B) {
	ablate(b, func(c *diag.Config) { c.LaneBufferEvery = 2 })
}

// BenchmarkAblationSlowRedirect triples the PC-lane restart penalty,
// modeling a slower control path on taken branches (§4.3).
func BenchmarkAblationSlowRedirect(b *testing.B) {
	ablate(b, func(c *diag.Config) { c.RedirectCycles = 3 })
}

// BenchmarkAblationNarrowBus doubles the shared 512-bit bus occupancy
// (§5.1.3), stressing I-line loads and backward register transport.
func BenchmarkAblationNarrowBus(b *testing.B) {
	ablate(b, func(c *diag.Config) { c.BusCycles = 4 })
}

// BenchmarkSIMTScaling reports pipelined-loop cycles at 2 vs 16 clusters
// (the §4.4.1 throughput-scaling claim).
func BenchmarkSIMTScaling(b *testing.B) {
	w, _ := workloads.ByName("x264")
	p := workloads.Params{Scale: 1, Threads: 1, SIMT: true}
	img, err := w.Build(p)
	if err != nil {
		b.Fatal(err)
	}
	for _, cfg := range []diag.Config{diag.F4C2(), diag.F4C16()} {
		cfg := cfg
		b.Run(cfg.Name, func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				st, _, err := diag.Run(cfg, img)
				if err != nil {
					b.Fatal(err)
				}
				cycles = st.Cycles
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

// BenchmarkWorkloadSweep runs every workload once on F4C2 per iteration
// (whole-suite regression benchmark).
func BenchmarkWorkloadSweep(b *testing.B) {
	type built struct {
		w   workloads.Workload
		img *diag.Program
	}
	var progs []built
	for _, w := range workloads.All() {
		img, err := w.Build(workloads.Params{Scale: 1, Threads: 1})
		if err != nil {
			b.Fatal(err)
		}
		progs = append(progs, built{w, img})
	}
	cfg := diag.F4C2()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			if _, _, err := diag.Run(cfg, p.img); err != nil {
				b.Fatalf("%s: %v", p.w.Name, err)
			}
		}
	}
}

var _ = bench.MultiThreadRings // keep the experiment constants linked

// ---- extension benchmarks (paper future work, implemented) ----

// BenchmarkExtensionStridePrefetch compares hotspot with the §5.2
// PE-local stride prefetcher on.
func BenchmarkExtensionStridePrefetch(b *testing.B) {
	ablate(b, func(c *diag.Config) { c.StridePrefetch = true })
}

// BenchmarkExtensionSharedFPUs runs hotspot with 4 shared FPUs per
// cluster instead of one per PE (§7.5 resource sharing: ~60% cluster
// area reduction for some structural-hazard cost).
func BenchmarkExtensionSharedFPUs(b *testing.B) {
	ablate(b, func(c *diag.Config) { c.SharedFPUs = 4 })
}

// BenchmarkExtensionSpeculativeDatapaths runs hotspot with speculative
// target-datapath construction (§7.3.2).
func BenchmarkExtensionSpeculativeDatapaths(b *testing.B) {
	ablate(b, func(c *diag.Config) { c.SpeculativeDatapaths = true })
}
