// diag-fault runs deterministic fault-injection campaigns: it executes
// a program many times on a DiAG machine (or the out-of-order
// baseline), injects one seed-derived fault per run at a named site
// class, classifies each run against the golden ISS (masked / SDC /
// detected / crash / hang), and prints an AVF-style vulnerability
// table. With -degrade it instead sweeps degraded-mode operation,
// fusing off clusters and reporting the slowdown curve.
//
// A fixed seed replays the identical campaign, byte for byte, at any
// -parallel value:
//
//	diag-fault -workload pathfinder -n 1000 -seed 42 -parallel 8
//	diag-fault -machine ooo -sites lane,pc,rob,iq -n 500 prog.s
//	diag-fault -machine F4C16 -degrade 8 -workload hotspot
//
// With -journal the campaign is crash-safe: every classified trial is
// recorded durably as it completes, Ctrl-C drains cleanly, and the run
// continues where it stopped — still byte-identical:
//
//	diag-fault -workload hotspot -n 10000 -journal run.journal
//	diag-fault -workload hotspot -n 10000 -journal run.journal -resume
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"diag"
	"diag/internal/cliutil"
	"diag/internal/fault"
	"diag/internal/obsv"
	"diag/internal/workloads"
)

func main() {
	core := cliutil.Flags(flag.CommandLine)
	machine := flag.String("machine", "F4C2", strings.Join(diag.Machines("diag", "ooo"), ", "))
	sites := flag.String("sites", "", "comma-separated site classes (lane,flane,pc,ibuf,enable,mem,rob,iq; default: all the machine has)")
	n := flag.Int("n", 100, "number of faulted trials")
	warmup := flag.Uint64("warmup", 0, "checkpoint the unfaulted machine after N retired instructions and fork eligible trials from it (0 = off; the report is identical either way)")
	workload := flag.String("workload", "", "run a named benchmark instead of a file")
	scale := flag.Int("scale", 1, "workload problem-size knob")
	degrade := flag.Int("degrade", -1, "sweep 0..K disabled clusters instead of injecting faults (DiAG only)")
	traceOut := flag.String("trace-out", "", "replay the first trial matching -trace-outcome with observability on and write its Chrome trace here")
	traceOutcome := flag.String("trace-outcome", "SDC", "outcome to replay for -trace-out (masked, SDC, detected, crash, hang)")
	verbose := flag.Bool("v", false, "print every trial")
	flag.Parse()

	ctx, stop := cliutil.SignalContext(context.Background())
	defer stop()

	img, label, _, err := cliutil.LoadProgram(flag.CommandLine, "workload", *workload, workloads.Params{Scale: *scale})
	if err != nil {
		fatal(err)
	}

	if *degrade >= 0 {
		// Degraded mode fuses off clusters, which only DiAG machines have.
		m, err := diag.MachineByName(*machine, "diag")
		if err != nil {
			fatal(fmt.Errorf("-degrade: %w", err))
		}
		points, err := fault.Degradation(ctx, *m.DiAG, img, *degrade, *core.Parallel)
		if err != nil {
			fatal(err)
		}
		fmt.Print(fault.DegradationTable(m.Name, points))
		return
	}
	m, err := diag.MachineByName(*machine, "diag", "ooo")
	if err != nil {
		fatal(err)
	}

	c := &fault.Campaign{
		Image:   img,
		Trials:  *n,
		Seed:    *core.Seed,
		Workers: *core.Parallel,
		Timeout: *core.Timeout,
		Warmup:  *warmup,
		Retry:   core.Retry(),
		DiAG:    m.DiAG,
		OoO:     m.Baseline,
	}
	if *sites != "" {
		c.Sites, err = fault.ParseClasses(*sites)
		if err != nil {
			fatal(err)
		}
	}

	jour, jstate, err := core.OpenJournal("diag-fault", c.Manifest("diag-fault"))
	if err != nil {
		fatal(err)
	}
	if jour != nil {
		c.Journal = jour
		defer jour.Close()
	}
	if jstate != nil {
		// Wedge suspects carry their trial seed so one can be replayed
		// in isolation while the campaign resumes.
		for _, sw := range jstate.Sweeps {
			for _, i := range sw.Wedged() {
				fmt.Fprintf(os.Stderr, "diag-fault: trial %d may wedge; reproduce it alone with: diag-fault -n 1 -seed %d <same program flags>\n",
					i, fault.TrialSeed(*core.Seed, i))
			}
		}
	}

	start := time.Now()
	rep, err := c.Run(ctx)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			cliutil.Interrupted("diag-fault", jour)
			os.Exit(130)
		}
		fatal(err)
	}
	rep.Workload = label
	w, err := core.Output()
	if err != nil {
		fatal(err)
	}
	defer w.Close()
	fmt.Fprint(w, rep.Table())
	if *verbose {
		fmt.Fprintln(w)
		for i, t := range rep.Trials {
			note := ""
			if !t.Injected {
				note = "  (never fired)"
			}
			fmt.Fprintf(w, "%4d  %-40s -> %s%s\n", i, t.Fault, t.Outcome, note)
		}
	}
	fmt.Fprintf(os.Stderr, "diag-fault: %d trials in %v\n", len(rep.Trials), time.Since(start).Round(time.Millisecond))

	if *traceOut != "" {
		if err := replayWithTrace(ctx, c, rep, *traceOutcome, *traceOut); err != nil {
			fatal(err)
		}
	}
}

// replayWithTrace re-runs the first trial whose outcome matches the
// requested class with the observability layer attached and writes the
// resulting Chrome trace, so the interesting run can be opened in
// Perfetto.
func replayWithTrace(ctx context.Context, c *fault.Campaign, rep *fault.Report, outcome, path string) error {
	trial := -1
	for i, t := range rep.Trials {
		if strings.EqualFold(t.Outcome.String(), outcome) {
			trial = i
			break
		}
	}
	if trial < 0 {
		return fmt.Errorf("no trial classified %q to replay", outcome)
	}
	col := obsv.NewCollector(0)
	t, err := c.Replay(ctx, rep, trial, col)
	if err != nil {
		return err
	}
	if _, err := cliutil.WriteChromeTrace(path, col, obsv.ChromeTraceOptions{UnitNames: []string{rep.Machine}}); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "diag-fault: replayed trial %d (%s -> %s) with tracing: %s (%d events)\n",
		trial, t.Fault, t.Outcome, path, col.Total())
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "diag-fault:", err)
	os.Exit(1)
}
