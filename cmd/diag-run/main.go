// diag-run executes a program — an assembly source file or a named
// benchmark workload — on a DiAG machine or on the out-of-order
// baseline, and reports timing, stall, and energy statistics.
//
// Usage:
//
//	diag-run [-machine F4C16] [-rings N] [-prefetch] [-shared-fpus N] [-spec-datapaths] prog.s
//	diag-run -workload hotspot [-scale 2] [-threads 4] [-simt] [-machine F4C32]
//	diag-run -workload mcf -machine ooo [-cores 12]
//
// -rings, -prefetch, -shared-fpus and -spec-datapaths apply to DiAG
// machines only, and -cores > 1 to the ooo baseline only; giving one
// to the other kind of machine is an error.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"diag"
	"diag/internal/cliutil"
	"diag/internal/workloads"
)

// Machine kinds diag-run can run: it has no report for the untimed ISS.
var runKinds = []string{"diag", "ooo"}

func main() {
	core := cliutil.Flags(flag.CommandLine)
	machine := flag.String("machine", "F4C16", strings.Join(diag.Machines(runKinds...), ", "))
	rings := flag.Int("rings", 0, "reshape the DiAG machine into N rings x 2 clusters")
	cores := flag.Int("cores", 1, "baseline core count (machine=ooo)")
	workload := flag.String("workload", "", "run a named benchmark instead of a file")
	scale := flag.Int("scale", 1, "workload problem-size knob")
	threads := flag.Int("threads", 1, "workload thread count")
	simt := flag.Bool("simt", false, "annotate the workload's parallel loop with simt.s/simt.e")
	showEnergy := flag.Bool("energy", true, "print the energy breakdown")
	traceN := flag.Int("trace", 0, "print the last N retired instructions and the instruction mix")
	prefetch := flag.Bool("prefetch", false, "enable PE-local stride prefetching (paper §5.2)")
	sharedFPUs := flag.Int("shared-fpus", 0, "share N FPUs per cluster instead of one per PE (paper §7.5)")
	spec := flag.Bool("spec-datapaths", false, "speculatively construct taken-branch target datapaths (paper §7.3.2)")
	asJSON := flag.Bool("json", false, "emit machine-readable JSON instead of text")
	maxCycles := flag.Int64("max-cycles", 0, "simulated-cycle budget for the run (0 = none)")
	flag.Parse()

	ctx, stop := cliutil.SignalContext(context.Background())
	defer stop()
	ctx, cancel := core.Context(ctx)
	defer cancel()

	img, _, check, err := cliutil.LoadProgram(flag.CommandLine, "workload", *workload,
		workloads.Params{Scale: *scale, Threads: *threads, SIMT: *simt})
	if err != nil {
		fatal(err)
	}
	m, err := diag.MachineByName(*machine, runKinds...)
	if err != nil {
		fatal(err)
	}
	given := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { given[f.Name] = true })

	// Resolve the target, its energy model, and its text report.
	var t diag.Target
	var energy func(*diag.Result) diag.EnergyBreakdown
	var report func(*diag.Result, *diag.EnergyBreakdown)
	if m.Baseline != nil {
		for _, name := range []string{"rings", "prefetch", "shared-fpus", "spec-datapaths"} {
			if given[name] {
				fatal(fmt.Errorf("-%s applies to DiAG machines, not %s", name, m.Name))
			}
		}
		cfg := *m.Baseline
		if *cores > 1 {
			cfg = diag.BaselineMulticore(*cores)
		}
		t = diag.OoO(cfg)
		energy = func(r *diag.Result) diag.EnergyBreakdown { return diag.BaselineEnergy(cfg, *r.Baseline, 2000) }
		report = func(r *diag.Result, e *diag.EnergyBreakdown) { printBaseline(cfg, *r.Baseline, e) }
	} else {
		if *cores > 1 {
			fatal(fmt.Errorf("-cores applies to the ooo baseline, not %s", m.Name))
		}
		cfg := *m.DiAG
		if *rings > 0 {
			cfg = diag.MultiRing(cfg, *rings, 2)
		}
		cfg.StridePrefetch = *prefetch
		cfg.SharedFPUs = *sharedFPUs
		cfg.SpeculativeDatapaths = *spec
		if *workload != "" && *threads > 1 && cfg.Rings < *threads {
			fmt.Fprintf(os.Stderr, "note: %d threads on %d ring(s); extra threads never run\n", *threads, cfg.Rings)
		}
		t = diag.DiAG(cfg)
		energy = func(r *diag.Result) diag.EnergyBreakdown { return diag.Energy(cfg, *r.DiAG) }
		report = func(r *diag.Result, e *diag.EnergyBreakdown) { printDiAG(cfg, *r.DiAG, e) }
	}

	var trace bytes.Buffer
	opts := []diag.RunOption{diag.WithContext(ctx), diag.WithMaxCycles(*maxCycles), diag.WithShards(*core.Shards)}
	if *traceN > 0 {
		opts = append(opts, diag.WithTrace(&trace), diag.WithTraceDepth(*traceN))
	}
	res, err := t.Run(img, opts...)
	if err != nil {
		fatal(err)
	}
	if check != nil {
		if err := check(res.Mem); err != nil {
			fatal(fmt.Errorf("result check failed: %w", err))
		}
		if !*asJSON {
			fmt.Println("result check: ok")
		}
	}
	e := energy(res)
	if *asJSON {
		var stats any = res.DiAG
		if res.Baseline != nil {
			stats = res.Baseline
		}
		emitJSON(res.Machine, stats, e)
		return
	}
	var shown *diag.EnergyBreakdown
	if *showEnergy {
		shown = &e
	}
	report(res, shown)
	if trace.Len() > 0 {
		fmt.Println()
		trace.WriteTo(os.Stdout)
	}
}

// printDiAG prints a DiAG run's report; e is nil when energy is hidden.
func printDiAG(cfg diag.Config, st diag.Stats, e *diag.EnergyBreakdown) {
	fmt.Printf("machine:   %s (%d PEs, %d ring(s) x %d clusters x %d PEs)\n",
		cfg.Name, cfg.TotalPEs(), cfg.Rings, cfg.Clusters, cfg.PEsPerCluster)
	fmt.Printf("cycles:    %d   retired: %d   IPC: %.3f\n", st.Cycles, st.Retired, st.IPC())
	fmt.Printf("reuse:     %d backward branches reused the datapath, %d reloaded; %d I-lines fetched\n",
		st.ReuseHits, st.ReuseMisses, st.LinesFetched)
	fmt.Printf("stalls:    memory %.1f%%  control %.1f%%  other %.1f%%\n",
		100*st.StallShare(diag.StallMemory), 100*st.StallShare(diag.StallControl),
		100*st.StallShare(diag.StallOther))
	if st.StridePrefetches > 0 || st.SpecDatapathHits > 0 {
		fmt.Printf("ext:       %d stride prefetches, %d speculative-datapath hits\n",
			st.StridePrefetches, st.SpecDatapathHits)
	}
	if st.SIMTRegions > 0 || st.SIMTRejects > 0 {
		fmt.Printf("simt:      %d regions pipelined %d threads (%d rejected to sequential)\n",
			st.SIMTRegions, st.SIMTThreads, st.SIMTRejects)
	}
	fmt.Printf("caches:    L1I %.1f%% miss   L1D %.1f%% miss   L2 %.1f%% miss   DRAM %d\n",
		100*st.L1I.MissRate(), 100*st.L1D.MissRate(), 100*st.L2.MissRate(), st.DRAMAccesses)
	printEnergy(e, "lanes+ALU")
}

// printBaseline prints an out-of-order run's report; e is nil when
// energy is hidden.
func printBaseline(cfg diag.BaselineConfig, st diag.BaselineStats, e *diag.EnergyBreakdown) {
	fmt.Printf("machine:   %s (%d core(s), %d-wide)\n", cfg.Name, cfg.Cores, cfg.IssueWidth)
	fmt.Printf("cycles:    %d   retired: %d   IPC: %.3f\n", st.Cycles, st.Retired, st.IPC())
	fmt.Printf("branches:  %d (%.2f%% mispredicted)\n", st.Branches, 100*st.MispredictRate())
	fmt.Printf("caches:    L1I %.1f%% miss   L1D %.1f%% miss   L2 %.1f%% miss   DRAM %d\n",
		100*st.L1I.MissRate(), 100*st.L1D.MissRate(), 100*st.L2.MissRate(), st.DRAMAccesses)
	printEnergy(e, "datapath")
}

// printEnergy prints the energy line; datapath names the second share.
func printEnergy(e *diag.EnergyBreakdown, datapath string) {
	if e == nil {
		return
	}
	sh := e.Share()
	fmt.Printf("energy:    %.3g J  (FP %.0f%%, %s %.0f%%, memory %.0f%%, control %.0f%%)\n",
		e.Total(), 100*sh[0], datapath, 100*sh[1], 100*sh[2], 100*sh[3])
}

// emitJSON prints one run's stats and energy as a JSON object.
func emitJSON(machine string, stats any, energy diag.EnergyBreakdown) {
	out := struct {
		Machine string               `json:"machine"`
		Stats   any                  `json:"stats"`
		Energy  diag.EnergyBreakdown `json:"energy"`
		Joules  float64              `json:"joules"`
	}{machine, stats, energy, energy.Total()}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "diag-run:", err)
	os.Exit(1)
}
