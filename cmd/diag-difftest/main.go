// diag-difftest is the differential conformance fuzzer: it generates
// seed-derived random RV32IM programs (guaranteed to terminate, memory
// confined to a scratch window) and runs each one across an
// architecture matrix — golden ISS with and without predecode, the
// DiAG ring in several configurations, and the out-of-order baseline —
// comparing retired-instruction counts, final register files, and
// memory digests. Divergences are delta-debugged down to a minimal
// reproducer and can be emitted as ready-to-paste Go corpus entries.
//
// A fixed seed replays the identical campaign, byte for byte, at any
// -parallel value:
//
//	diag-difftest -seed 1 -n 200
//	diag-difftest -seed 42 -n 1000 -arch-matrix ring,ooo -parallel 8
//	diag-difftest -seed 7 -n 500 -shrink -emit-test
//
// With -journal the fuzzing session is crash-safe: finished trials are
// recorded durably, Ctrl-C drains cleanly, and -resume continues where
// the session stopped with a byte-identical final report:
//
//	diag-difftest -seed 1 -n 100000 -journal fuzz.journal
//	diag-difftest -seed 1 -n 100000 -journal fuzz.journal -resume
//
// The report goes to stdout; progress and timing go to stderr. Exit
// status is 1 when any trial diverged (or the generator itself broke),
// 0 when every architecture agreed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"diag"
	"diag/internal/cliutil"
	"diag/internal/difftest"
	"diag/internal/obsv"
)

func main() {
	core := cliutil.Flags(flag.CommandLine)
	n := flag.Int("n", 200, "number of generated programs")
	archMatrix := flag.String("arch-matrix", "all", "comma-separated matrix columns (golden iss always included)")
	shrink := flag.Bool("shrink", true, "delta-debug each divergent program to a minimal reproducer")
	emitTest := flag.Bool("emit-test", false, "print minimized repros as Go corpus-entry source after the report")
	maxAtoms := flag.Int("max-atoms", 0, "program size knob: body atoms per generated program (0 = default)")
	traceDir := flag.String("trace-dir", "", "re-run each divergent reproducer with observability on and write Chrome traces (ring + ooo) into this directory")
	listArchs := flag.Bool("list-archs", false, "print the matrix columns and exit")
	verbose := flag.Bool("v", false, "print a line per trial to stderr")
	flag.Parse()

	if *listArchs {
		fmt.Println(strings.Join(difftest.ArchNames(), "\n"))
		return
	}
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("usage: diag-difftest [flags]  (programs are generated, not read from files)"))
	}

	ctx, stop := cliutil.SignalContext(context.Background())
	defer stop()
	ctx, cancel := core.Context(ctx)
	defer cancel()

	opt := difftest.Options{
		Seed:    *core.Seed,
		Trials:  *n,
		Archs:   *archMatrix,
		Shrink:  *shrink,
		Workers: *core.Parallel,
		Gen:     difftest.GenOptions{MaxAtoms: *maxAtoms},
		Retry:   core.Retry(),
	}

	jour, jstate, err := core.OpenJournal("diag-difftest", opt.Manifest("diag-difftest"))
	if err != nil {
		fatal(err)
	}
	if jour != nil {
		opt.Journal = jour
		defer jour.Close()
	}
	if jstate != nil {
		// A trial that was in flight when the last run died is the prime
		// wedge suspect; its seed reproduces it in isolation.
		for _, sw := range jstate.Sweeps {
			for _, i := range sw.Wedged() {
				fmt.Fprintf(os.Stderr, "diag-difftest: trial %d may wedge; reproduce it alone with: diag-difftest -seed %d -n 1\n",
					i, difftest.TrialSeed(*core.Seed, i))
			}
		}
	}

	start := time.Now()
	rep, err := difftest.Run(ctx, opt)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			cliutil.Interrupted("diag-difftest", jour)
			os.Exit(130)
		}
		fatal(err)
	}
	w, err := core.Output()
	if err != nil {
		fatal(err)
	}
	defer w.Close()
	fmt.Fprint(w, rep.Format())

	if *emitTest {
		for _, tr := range rep.Diverged {
			src, err := difftest.EmitTestCase(tr)
			if err != nil {
				fmt.Fprintf(os.Stderr, "diag-difftest: trial %d: %v\n", tr.Trial, err)
				continue
			}
			fmt.Fprintln(w)
			fmt.Fprint(w, src)
		}
	}
	if *verbose {
		for _, tr := range rep.Diverged {
			fmt.Fprintf(os.Stderr, "trial %4d  seed %-12d  %d divergences\n", tr.Trial, tr.Seed, len(tr.Divergences))
		}
	}
	if *traceDir != "" && len(rep.Diverged) > 0 {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fatal(err)
		}
		for _, tr := range rep.Diverged {
			if err := writeTraces(ctx, tr, opt.Gen, *traceDir); err != nil {
				fmt.Fprintf(os.Stderr, "diag-difftest: trial %d traces: %v\n", tr.Trial, err)
			}
		}
	}
	fmt.Fprintf(os.Stderr, "diag-difftest: %d trials in %v\n", rep.Trials, time.Since(start).Round(time.Millisecond))
	if len(rep.Diverged) > 0 || len(rep.GeneratorErr) > 0 {
		os.Exit(1)
	}
}

// writeTraces re-runs one divergent trial's reproducer (the minimized
// program when shrinking found one, the original otherwise) on the DiAG
// ring and the out-of-order baseline with the observability layer
// attached, writing one Chrome trace per machine. Diffing the two in
// Perfetto shows where the timelines part ways.
func writeTraces(ctx context.Context, tr difftest.TrialReport, gen difftest.GenOptions, dir string) error {
	prog := difftest.Generate(rand.New(rand.NewSource(tr.Seed)), gen)
	if tr.Min != nil {
		prog = *tr.Min
	}
	img, err := prog.Image(difftest.ScratchFromSeed(tr.ScratchSeed))
	if err != nil {
		return err
	}

	write := func(suffix string, t diag.Target) error {
		col := obsv.NewCollector(0)
		if _, err := t.Run(img, diag.WithContext(ctx), diag.WithObserver(col)); err != nil {
			// A divergent program may legitimately fail on one machine;
			// the partial trace is still worth keeping.
			fmt.Fprintf(os.Stderr, "diag-difftest: trial %d on %s: %v\n", tr.Trial, suffix, err)
		}
		path := filepath.Join(dir, fmt.Sprintf("trial-%d-%s.json", tr.Trial, suffix))
		if _, err := cliutil.WriteChromeTrace(path, col, obsv.ChromeTraceOptions{UnitNames: []string{suffix}}); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "diag-difftest: wrote %s (%d events)\n", path, col.Total())
		return nil
	}
	if err := write("ring", diag.DiAG(diag.F4C2())); err != nil {
		return err
	}
	return write("ooo", diag.OoO(diag.Baseline()))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "diag-difftest:", err)
	os.Exit(1)
}
