// diag-bench regenerates the paper's evaluation figures (see DESIGN.md
// for the experiment index). Independent simulations fan out across a
// worker pool; the tables are byte-identical at any -parallel setting.
//
// Usage:
//
//	diag-bench -fig 9a               # one figure: 9a, 9b, 10a, 10b, 11, 12
//	diag-bench -stalls               # §7.3.2 stall-source breakdown
//	diag-bench -all [-scale 2]       # everything
//	diag-bench -all -parallel 8      # on 8 workers
//	diag-bench -all -timeout 2m      # bound each simulation's wall clock
//	diag-bench -all -cpuprofile diag.pprof   # profile a sweep
//
// Ctrl-C cancels the sweep; in-flight simulations abort within a few
// thousand simulated instructions. With -journal every finished
// simulation is recorded durably, and -resume (with the same figure
// selection and scale) replays them instead of re-simulating:
//
//	diag-bench -all -scale 2 -journal figs.journal
//	diag-bench -all -scale 2 -journal figs.journal -resume
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"diag/internal/bench"
	"diag/internal/cliutil"
	"diag/internal/exp"
	"diag/internal/journal"
)

// order keeps -all output in the paper's order.
var order = []string{"9a", "9b", "10a", "10b", "11", "12"}

func main() {
	core := cliutil.Flags(flag.CommandLine)
	fig := flag.String("fig", "", "figure to regenerate: 9a, 9b, 10a, 10b, 11, 12")
	stalls := flag.Bool("stalls", false, "regenerate the §7.3.2 stall breakdown")
	all := flag.Bool("all", false, "regenerate every figure and the stall breakdown")
	scale := flag.Int("scale", 1, "workload problem-size knob")
	csv := flag.Bool("csv", false, "emit CSV instead of a text table")
	sweep := flag.String("sweep", "", "PE-scaling sweep for one workload (§7.2.1 saturation)")
	list := flag.Bool("list", false, "list the benchmark kernels")
	progress := flag.Bool("progress", true, "report live per-simulation progress on stderr")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	flag.Parse()

	stopProfile := startCPUProfile(*cpuprofile)
	defer stopProfile()
	defer writeHeapProfile(*memprofile)

	// Ctrl-C (or SIGTERM) cancels the whole sweep rather than killing the
	// process mid-write; a second signal kills immediately
	// (signal.NotifyContext restores the default handler once the
	// context is done).
	ctx, stop := cliutil.SignalContext(context.Background())
	defer stop()

	w, err := core.Output()
	if err != nil {
		fatal(err)
	}
	defer w.Close()

	// The journal identifies the regeneration by its figure selection and
	// scale: a resume must request the same sequence of sweeps.
	var mode string
	switch {
	case *sweep != "":
		mode = "sweep:" + *sweep
	case *all:
		mode = "all"
	case *stalls:
		mode = "stalls"
	case *fig != "":
		mode = "fig:" + *fig
	}
	if mode != "" {
		jour, _, err = core.OpenJournal("diag-bench", journal.Manifest{
			Tool: "diag-bench",
			ConfigDigest: journal.DigestJSON(struct {
				Mode  string
				Scale int
			}{mode, *scale}),
			Note: mode,
		})
		if err != nil {
			fatal(err)
		}
		if jour != nil {
			defer jour.Close()
		}
	}

	runner := bench.NewRunner(ctx, bench.Options{
		Workers:    *core.Parallel,
		Shards:     *core.Shards,
		Timeout:    *core.Timeout,
		OnProgress: progressFunc(*progress),
		Journal:    jour,
		Retry:      core.Retry(),
	})

	figures := map[string]func(int) (*bench.Figure, error){
		"9a":  runner.Fig9a,
		"9b":  runner.Fig9b,
		"10a": runner.Fig10a,
		"10b": runner.Fig10b,
		"11":  runner.Fig11,
		"12":  runner.Fig12,
	}
	render := func(fig *bench.Figure) string {
		if *csv {
			return fig.CSV()
		}
		return fig.Table().String()
	}

	switch {
	case *list:
		fmt.Fprintln(w, bench.Describe())
	case *sweep != "":
		fig, err := runner.ScalingSweep(*sweep, []int{2, 4, 8, 16, 32, 64}, *scale)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintln(w, render(fig))
	case *all:
		for _, id := range order {
			emit(w, figures[id], *scale, render)
		}
		emit(w, runner.StallBreakdown, *scale, render)
	case *stalls:
		emit(w, runner.StallBreakdown, *scale, render)
	case *fig != "":
		f, ok := figures[*fig]
		if !ok {
			fmt.Fprintf(os.Stderr, "diag-bench: unknown figure %q\n", *fig)
			os.Exit(2)
		}
		emit(w, f, *scale, render)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// progressFunc returns the live progress reporter, or nil when disabled
// or when stderr is not worth spamming. Lines are overwritten in place
// so a long sweep shows a single updating status line per figure.
func progressFunc(enabled bool) func(exp.Progress) {
	if !enabled {
		return nil
	}
	return func(p exp.Progress) {
		status := "ok"
		if p.Replayed {
			status = "replay"
		}
		if p.Err != nil {
			status = "FAIL"
		}
		fmt.Fprintf(os.Stderr, "\r\x1b[K[%*d/%d] %-40s %8s  %s",
			len(fmt.Sprint(p.Total)), p.Done, p.Total, p.Name,
			p.Elapsed.Round(time.Millisecond), status)
		if p.Done == p.Total {
			fmt.Fprintln(os.Stderr)
		}
	}
}

func emit(w io.Writer, f func(int) (*bench.Figure, error), scale int, render func(*bench.Figure) string) {
	fig, err := f(scale)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintln(w, render(fig))
}

// jour is the run journal when -journal is set; fatal consults it so an
// interruption anywhere in a figure sequence prints the resume command.
var jour *journal.Journal

func fatal(err error) {
	if errors.Is(err, context.Canceled) {
		cliutil.Interrupted("diag-bench", jour)
		os.Exit(130)
	}
	fmt.Fprintln(os.Stderr, "diag-bench:", err)
	os.Exit(1)
}

// startCPUProfile begins a pprof CPU profile; the returned func stops it.
func startCPUProfile(path string) func() {
	if path == "" {
		return func() {}
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		fatal(err)
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}
}

// writeHeapProfile snapshots the allocation profile at exit.
func writeHeapProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	runtime.GC() // materialize up-to-date allocation statistics
	if err := pprof.WriteHeapProfile(f); err != nil {
		fatal(err)
	}
}
