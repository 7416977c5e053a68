// diag-trace runs a program — an assembly source file or a named
// benchmark kernel — with the cycle-level observability layer attached
// and exports what it saw: a Chrome trace-event JSON file loadable at
// https://ui.perfetto.dev (or chrome://tracing), a CSV occupancy
// timeseries, and a metrics summary.
//
// Usage:
//
//	diag-trace -kernel pathfinder -o trace.json
//	diag-trace -machine ooo -kernel mcf -scale 2 -o trace.json -csv occ.csv
//	diag-trace -machine F4C16 -summary prog.s
//	diag-trace -kernel srad -from-cycle 50000 -o tail.json
//
// With -from-cycle K the run executes untraced up to (approximately)
// cycle K — checkpointing the machine as it goes — then restores the
// nearest checkpoint at or below K and replays the rest with the
// observer attached. The emitted trace covers the region of interest
// without paying event-collection cost for the warmup, and determinism
// makes the replayed tail identical to an always-traced run.
//
// The exported trace is validated against the trace-event schema subset
// before it is written; -validate checks an existing file instead of
// running anything.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"diag"
	"diag/internal/cliutil"
	"diag/internal/obsv"
	"diag/internal/workloads"
)

func main() {
	core := cliutil.Flags(flag.CommandLine)
	machine := flag.String("machine", "F4C2", strings.Join(diag.Machines("diag", "ooo"), ", "))
	kernel := flag.String("kernel", "", "run a named benchmark kernel instead of a file")
	scale := flag.Int("scale", 1, "kernel problem-size knob")
	csvOut := flag.String("csv", "", "write the occupancy timeseries CSV here")
	summary := flag.Bool("summary", false, "print the metrics summary to stdout")
	limit := flag.Int("limit", 0, "event retention bound (0 = default; events past it still count)")
	sample := flag.Int64("sample", 0, "minimum cycle spacing between occupancy samples (0 = default 256)")
	validate := flag.String("validate", "", "validate an existing trace JSON file and exit")
	maxCycles := flag.Int64("max-cycles", 0, "simulated-cycle budget for the run (0 = none)")
	fromCycle := flag.Int64("from-cycle", 0, "skip event collection before ~cycle K: run untraced, restore the nearest checkpoint below K, replay traced")
	flag.Parse()

	if *validate != "" {
		f, err := os.Open(*validate)
		if err != nil {
			fatal(err)
		}
		doc, err := obsv.DecodeChromeTrace(f)
		f.Close()
		if err == nil {
			err = doc.Validate()
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s: valid (%d entries)\n", *validate, len(doc.TraceEvents))
		return
	}
	out := *core.Out
	if out == "" && *csvOut == "" && !*summary {
		fatal(fmt.Errorf("nothing to do: pass -o, -csv, or -summary"))
	}

	ctx, stop := cliutil.SignalContext(context.Background())
	defer stop()
	ctx, cancel := core.Context(ctx)
	defer cancel()

	img, label, _, err := cliutil.LoadProgram(flag.CommandLine, "kernel", *kernel, workloads.Params{Scale: *scale})
	if err != nil {
		fatal(err)
	}

	col := obsv.NewCollector(*limit)
	reg := obsv.NewRegistry(*sample)
	obs := obsv.Tee(col, reg)

	m, err := diag.MachineByName(*machine, "diag", "ooo")
	if err != nil {
		fatal(err)
	}
	var target diag.Target
	var unitNames []string
	if m.Baseline != nil {
		target = diag.OoO(*m.Baseline)
		for i := 0; i < m.Baseline.Cores; i++ {
			unitNames = append(unitNames, fmt.Sprintf("core %d", i))
		}
	} else {
		target = diag.DiAG(*m.DiAG)
		for i := 0; i < m.DiAG.Rings; i++ {
			unitNames = append(unitNames, fmt.Sprintf("ring %d", i))
		}
	}

	res, err := run(ctx, target, img, *fromCycle, *maxCycles, obs)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "diag-trace: %s on %s: %d cycles, %d events (%d dropped)\n",
		label, target.Name(), res.Cycles, col.Total(), col.Dropped())

	if out != "" {
		// Export to memory first so the written file is always a trace
		// that round-trips through the schema validator.
		var buf bytes.Buffer
		if err := col.WriteChromeTrace(&buf, obsv.ChromeTraceOptions{UnitNames: unitNames}); err != nil {
			fatal(err)
		}
		doc, err := obsv.DecodeChromeTrace(bytes.NewReader(buf.Bytes()))
		if err == nil {
			err = doc.Validate()
		}
		if err != nil {
			fatal(fmt.Errorf("internal error: emitted trace fails validation: %w", err))
		}
		if err := os.WriteFile(out, buf.Bytes(), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "diag-trace: wrote %s (%d entries); open at https://ui.perfetto.dev\n",
			out, len(doc.TraceEvents))
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
		fmt.Print(reg.Summary())
	}
}

// checkpointStride is how many retired instructions separate the
// rolling checkpoints of a -from-cycle run: small enough that the
// nearest-below restore point lands close to the requested cycle,
// large enough that checkpointing stays a small fraction of run time.
const checkpointStride = 8192

// run executes img on t. With fromCycle == 0 the observer is attached
// from reset; otherwise the machine runs untraced in checkpointed
// strides until its clock passes fromCycle, then the nearest checkpoint
// at or below it is restored and replayed with the observer attached.
func run(ctx context.Context, t diag.Target, img *diag.Program, fromCycle, maxCycles int64, obs diag.Observer) (*diag.Result, error) {
	opts := func(extra ...diag.RunOption) []diag.RunOption {
		all := []diag.RunOption{diag.WithContext(ctx)}
		if maxCycles > 0 {
			all = append(all, diag.WithMaxCycles(maxCycles))
		}
		return append(all, extra...)
	}
	if fromCycle <= 0 {
		return t.Run(img, opts(diag.WithObserver(obs))...)
	}

	// Untraced warmup: pause every checkpointStride instructions and
	// keep the latest snapshot still at or below the requested cycle.
	var nearest *diag.Snapshot
	n := uint64(checkpointStride)
	res, err := t.Run(img, opts(diag.WithRunUntil(n))...)
	for err == nil && !res.Done && res.Cycles < fromCycle {
		s, cerr := t.Checkpoint()
		if cerr != nil {
			return nil, cerr
		}
		nearest = s
		n += checkpointStride
		res, err = t.Resume(s, opts(diag.WithRunUntil(n))...)
	}
	if err != nil {
		return nil, err
	}
	// Replay the tail — from the nearest-below checkpoint, or from
	// reset when the clock crossed fromCycle inside the first stride —
	// with the observer attached.
	if nearest == nil {
		return t.Run(img, opts(diag.WithObserver(obs))...)
	}
	return t.Resume(nearest, opts(diag.WithObserver(obs))...)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "diag-trace:", err)
	os.Exit(1)
}
