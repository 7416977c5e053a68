// diag-run executes a program — an assembly source file or a named
// benchmark workload — on a DiAG machine or on the out-of-order
// baseline, and reports timing, stall, and energy statistics. The
// report goes to stdout, or to the -o file.
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
//
// The same run can attach the cycle-level observability layer and
// export what it saw: a Chrome trace-event JSON file loadable at
// https://ui.perfetto.dev (-trace-out), a CSV occupancy timeseries
// (-csv), and a metrics summary printed after the report (-summary):
//
//	diag-run -workload pathfinder -machine F4C2 -trace-out trace.json
//	diag-run -workload mcf -machine ooo -scale 2 -trace-out trace.json -csv occ.csv
//	diag-run -workload srad -from-cycle 50000 -trace-out tail.json
//
// With -from-cycle K the run executes unobserved up to (approximately)
// cycle K — checkpointing the machine as it goes — then restores the
// nearest checkpoint at or below K and replays the rest with the
// observer attached. The exported trace covers the region of interest
// without paying event-collection cost for the warmup, and determinism
// makes the replayed tail identical to an always-observed run.
//
// The exported trace is validated against the trace-event schema subset
// before it is written; -validate FILE checks an existing file instead
// of running anything.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"diag"
	"diag/internal/cliutil"
	"diag/internal/obsv"
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
	traceOut := flag.String("trace-out", "", "write the run's cycle-level events here as a Chrome trace (open at https://ui.perfetto.dev)")
	csvOut := flag.String("csv", "", "write the occupancy timeseries CSV here")
	summary := flag.Bool("summary", false, "print the event metrics summary after the report")
	limit := flag.Int("limit", 0, "event retention bound for -trace-out (0 = default; events past it still count)")
	validate := flag.String("validate", "", "validate an existing Chrome trace file and exit")
	fromCycle := flag.Int64("from-cycle", 0, "observe from ~cycle K only: run unobserved, restore the nearest checkpoint below K, replay observed")
	flag.Parse()

	w, err := core.Output()
	if err != nil {
		fatal(err)
	}
	if *validate != "" {
		f, err := os.Open(*validate)
		if err != nil {
			fatal(err)
		}
		n, err := cliutil.CheckChromeTrace(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(w, "%s: valid (%d entries)\n", *validate, n)
		closeOutput(w)
		return
	}
	if *summary && *asJSON {
		fatal(errors.New("-summary cannot be combined with -json: the summary is text"))
	}
	if *fromCycle > 0 {
		if *traceOut == "" && *csvOut == "" && !*summary {
			fatal(errors.New("-from-cycle needs observer output: pass -trace-out, -csv, or -summary"))
		}
		if *traceN > 0 {
			fatal(errors.New("-from-cycle cannot be combined with -trace: the replayed tail has no full instruction trace"))
		}
	}

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

	// Resolve the target, its unit names, its energy model, and its
	// text report.
	var t diag.Target
	var units []string
	var energy func(*diag.Result) diag.EnergyBreakdown
	var report func(io.Writer, *diag.Result, *diag.EnergyBreakdown)
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
		units = unitNames("core", cfg.Cores)
		energy = func(r *diag.Result) diag.EnergyBreakdown { return diag.BaselineEnergy(cfg, *r.Baseline, 2000) }
		report = func(w io.Writer, r *diag.Result, e *diag.EnergyBreakdown) { printBaseline(w, cfg, *r.Baseline, e) }
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
		units = unitNames("ring", cfg.Rings)
		energy = func(r *diag.Result) diag.EnergyBreakdown { return diag.Energy(cfg, *r.DiAG) }
		report = func(w io.Writer, r *diag.Result, e *diag.EnergyBreakdown) { printDiAG(w, cfg, *r.DiAG, e) }
	}

	var trace bytes.Buffer
	opts := []diag.RunOption{diag.WithContext(ctx), diag.WithMaxCycles(*maxCycles), diag.WithShards(*core.Shards)}
	if *traceN > 0 {
		opts = append(opts, diag.WithTrace(&trace), diag.WithTraceDepth(*traceN))
	}
	col, reg := obsv.NewCollector(*limit), obsv.NewRegistry(0)
	var obs []diag.Observer
	if *traceOut != "" {
		obs = append(obs, col)
	}
	if *csvOut != "" || *summary {
		obs = append(obs, reg)
	}
	res, err := run(t, img, *fromCycle, opts, obsv.Tee(obs...))
	if err != nil {
		fatal(err)
	}
	if check != nil {
		if err := check(res.Mem); err != nil {
			fatal(fmt.Errorf("result check failed: %w", err))
		}
		if !*asJSON {
			fmt.Fprintln(w, "result check: ok")
		}
	}
	e := energy(res)
	if *asJSON {
		var stats any = res.DiAG
		if res.Baseline != nil {
			stats = res.Baseline
		}
		emitJSON(w, res.Machine, stats, e)
	} else {
		var shown *diag.EnergyBreakdown
		if *showEnergy {
			shown = &e
		}
		report(w, res, shown)
		if trace.Len() > 0 {
			fmt.Fprintln(w)
			trace.WriteTo(w)
		}
	}

	if *traceOut != "" {
		n, err := cliutil.WriteChromeTrace(*traceOut, col, obsv.ChromeTraceOptions{UnitNames: units})
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "diag-run: %d events (%d dropped); wrote %s (%d entries); open at https://ui.perfetto.dev\n",
			col.Total(), col.Dropped(), *traceOut, n)
	}
	if *csvOut != "" {
		f, err := os.Create(*csvOut)
		if err != nil {
			fatal(err)
		}
		if err := reg.WriteCSV(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	if *summary {
		fmt.Fprintln(w)
		fmt.Fprint(w, reg.Summary())
	}
	closeOutput(w)
}

// closeOutput closes the -o destination, failing on a lost write.
func closeOutput(w io.Closer) {
	if err := w.Close(); err != nil {
		fatal(err)
	}
}

// unitNames labels a machine's n rings or cores for the Chrome trace.
func unitNames(noun string, n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("%s %d", noun, i)
	}
	return names
}

// checkpointStride is how many retired instructions separate the
// rolling checkpoints of a -from-cycle run: small enough that the
// nearest-below restore point lands close to the requested cycle,
// large enough that checkpointing stays a small fraction of run time.
const checkpointStride = 8192

// run executes img on t under opts. With fromCycle == 0 obs (nil for
// none) is attached from reset; otherwise the machine runs unobserved
// in checkpointed strides until its clock passes fromCycle, then the
// nearest checkpoint at or below it is restored and replayed with obs
// attached.
func run(t diag.Target, img *diag.Program, fromCycle int64, opts []diag.RunOption, obs diag.Observer) (*diag.Result, error) {
	opts = opts[:len(opts):len(opts)] // so each append below copies
	observed := append(opts, diag.WithObserver(obs))
	if fromCycle <= 0 {
		return t.Run(img, observed...)
	}

	// Unobserved warmup: pause every checkpointStride instructions and
	// keep the latest snapshot still at or below the requested cycle.
	var nearest *diag.Snapshot
	n := uint64(checkpointStride)
	res, err := t.Run(img, append(opts, diag.WithRunUntil(n))...)
	for err == nil && !res.Done && res.Cycles < fromCycle {
		s, cerr := t.Checkpoint()
		if cerr != nil {
			return nil, cerr
		}
		nearest = s
		n += checkpointStride
		res, err = t.Resume(s, append(opts, diag.WithRunUntil(n))...)
	}
	if err != nil {
		return nil, err
	}
	// Replay the tail — from the nearest-below checkpoint, or from
	// reset when the clock crossed fromCycle inside the first stride —
	// with the observer attached.
	if nearest == nil {
		return t.Run(img, observed...)
	}
	return t.Resume(nearest, observed...)
}

// printDiAG prints a DiAG run's report; e is nil when energy is hidden.
func printDiAG(w io.Writer, cfg diag.Config, st diag.Stats, e *diag.EnergyBreakdown) {
	fmt.Fprintf(w, "machine:   %s (%d PEs, %d ring(s) x %d clusters x %d PEs)\n",
		cfg.Name, cfg.TotalPEs(), cfg.Rings, cfg.Clusters, cfg.PEsPerCluster)
	fmt.Fprintf(w, "cycles:    %d   retired: %d   IPC: %.3f\n", st.Cycles, st.Retired, st.IPC())
	fmt.Fprintf(w, "reuse:     %d backward branches reused the datapath, %d reloaded; %d I-lines fetched\n",
		st.ReuseHits, st.ReuseMisses, st.LinesFetched)
	fmt.Fprintf(w, "stalls:    memory %.1f%%  control %.1f%%  other %.1f%%\n",
		100*st.StallShare(diag.StallMemory), 100*st.StallShare(diag.StallControl),
		100*st.StallShare(diag.StallOther))
	if st.StridePrefetches > 0 || st.SpecDatapathHits > 0 {
		fmt.Fprintf(w, "ext:       %d stride prefetches, %d speculative-datapath hits\n",
			st.StridePrefetches, st.SpecDatapathHits)
	}
	if st.SIMTRegions > 0 || st.SIMTRejects > 0 {
		fmt.Fprintf(w, "simt:      %d regions pipelined %d threads (%d rejected to sequential)\n",
			st.SIMTRegions, st.SIMTThreads, st.SIMTRejects)
	}
	fmt.Fprintf(w, "caches:    L1I %.1f%% miss   L1D %.1f%% miss   L2 %.1f%% miss   DRAM %d\n",
		100*st.L1I.MissRate(), 100*st.L1D.MissRate(), 100*st.L2.MissRate(), st.DRAMAccesses)
	printEnergy(w, e, "lanes+ALU")
}

// printBaseline prints an out-of-order run's report; e is nil when
// energy is hidden.
func printBaseline(w io.Writer, cfg diag.BaselineConfig, st diag.BaselineStats, e *diag.EnergyBreakdown) {
	fmt.Fprintf(w, "machine:   %s (%d core(s), %d-wide)\n", cfg.Name, cfg.Cores, cfg.IssueWidth)
	fmt.Fprintf(w, "cycles:    %d   retired: %d   IPC: %.3f\n", st.Cycles, st.Retired, st.IPC())
	fmt.Fprintf(w, "branches:  %d (%.2f%% mispredicted)\n", st.Branches, 100*st.MispredictRate())
	fmt.Fprintf(w, "caches:    L1I %.1f%% miss   L1D %.1f%% miss   L2 %.1f%% miss   DRAM %d\n",
		100*st.L1I.MissRate(), 100*st.L1D.MissRate(), 100*st.L2.MissRate(), st.DRAMAccesses)
	printEnergy(w, e, "datapath")
}

// printEnergy prints the energy line; datapath names the second share.
func printEnergy(w io.Writer, e *diag.EnergyBreakdown, datapath string) {
	if e == nil {
		return
	}
	sh := e.Share()
	fmt.Fprintf(w, "energy:    %.3g J  (FP %.0f%%, %s %.0f%%, memory %.0f%%, control %.0f%%)\n",
		e.Total(), 100*sh[0], datapath, 100*sh[1], 100*sh[2], 100*sh[3])
}

// emitJSON prints one run's stats and energy as a JSON object.
func emitJSON(w io.Writer, machine string, stats any, energy diag.EnergyBreakdown) {
	out := struct {
		Machine string               `json:"machine"`
		Stats   any                  `json:"stats"`
		Energy  diag.EnergyBreakdown `json:"energy"`
		Joules  float64              `json:"joules"`
	}{machine, stats, energy, energy.Total()}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "diag-run:", err)
	os.Exit(1)
}
