// diag-explore sweeps a declarative design space and reports the Pareto
// frontier over cycles × area × energy per workload. A space is a JSON
// description whose fields are axes (PE counts, cluster geometry, cache
// levels); diag-explore expands the cross product, validates and
// deduplicates the candidates, evaluates each one per workload in
// parallel, and prunes dominated points. The frontier is byte-identical
// at any -parallel value, and the paper's Table 2 configurations show
// up as named points (I4C2, F4C2, ...) when the space contains them.
//
//	diag-explore -workloads pathfinder -top 10
//	diag-explore -space space.json -workloads pathfinder,hotspot -frontier-out frontier.csv
//	diag-explore -space '{"clusters":[2,4,8]}' -workloads pathfinder -plan
//
// With -journal every completed evaluation is recorded durably; an
// interrupted exploration resumes where it stopped and produces the
// identical frontier:
//
//	diag-explore -workloads hotspot -journal run.journal
//	diag-explore -workloads hotspot -journal run.journal -resume
//
// See docs/EXPLORER.md for the space schema and a full walkthrough.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"diag/internal/cliutil"
	idiag "diag/internal/diag"
	"diag/internal/exp"
	"diag/internal/explore"
)

func main() {
	core := cliutil.Flags(flag.CommandLine)
	spaceArg := flag.String("space", "paper", `design space: "paper" (built-in), a JSON file path, or inline JSON starting with "{"`)
	workloadsArg := flag.String("workloads", "", "comma-separated workload names; one frontier each (required)")
	scale := flag.Int("scale", 1, "workload problem-size knob")
	maxCycles := flag.Int64("max-cycles", 0, "per-candidate simulated-cycle budget (0 = default); candidates that exceed it drop out of the frontier")
	top := flag.Int("top", 10, "frontier points per workload in the printed table (0 = all)")
	frontierOut := flag.String("frontier-out", "", "write the full frontier here: .json for the complete report, anything else for CSV")
	plan := flag.Bool("plan", false, "expand and summarize the space, then exit without simulating")
	progress := flag.Bool("progress", false, "report evaluation progress to stderr")
	flag.Parse()

	space, err := parseSpace(*spaceArg)
	if err != nil {
		fatal(err)
	}
	names := splitNames(*workloadsArg)
	if len(names) == 0 {
		fatal(fmt.Errorf("no workloads: pass -workloads NAME[,NAME...]"))
	}

	p, err := explore.NewPlan(space, names)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "diag-explore: space %q: %d points -> %d candidates (%d invalid, %d duplicate); %d evaluations across %s\n",
		p.Space.Name, p.Expansion.Points, len(p.Candidates),
		p.Expansion.Invalid, p.Expansion.Duplicate, p.Jobs, strings.Join(names, ","))
	if *plan {
		return
	}

	opts := explore.Options{
		Workloads: names,
		Scale:     *scale,
		Workers:   *core.Parallel,
		Timeout:   *core.Timeout,
		MaxCycles: *maxCycles,
		Retry:     core.Retry(),
	}
	jour, _, err := core.OpenJournal("diag-explore", p.Manifest(opts))
	if err != nil {
		fatal(err)
	}
	if jour != nil {
		opts.Journal = jour
		defer jour.Close()
	}
	if *progress {
		opts.OnProgress = func(pr exp.Progress) {
			state := "done"
			if pr.Replayed {
				state = "replayed"
			}
			if pr.Err != nil {
				state = "failed: " + pr.Err.Error()
			}
			fmt.Fprintf(os.Stderr, "diag-explore: [%d/%d] %s %s\n", pr.Done, pr.Total, pr.Name, state)
		}
	}

	ctx, stop := cliutil.SignalContext(context.Background())
	defer stop()

	start := time.Now()
	rep, err := p.Run(ctx, opts)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			cliutil.Interrupted("diag-explore", jour)
			os.Exit(130)
		}
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "diag-explore: %d evaluations in %v\n", p.Jobs, time.Since(start).Round(time.Millisecond))

	w, err := core.Output()
	if err != nil {
		fatal(err)
	}
	defer w.Close()
	for i, f := range rep.Frontiers {
		if i > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprint(w, f.Table(*top))
		for _, paper := range idiag.Table2Configs() {
			if pt, ok := f.Named(paper.Name); ok {
				fmt.Fprintf(w, "%s: paper point %s on the frontier: %d cycles, %.3f mm^2, %.3e J\n",
					f.Workload, paper.Name, pt.Cycles, pt.AreaUM2/1e6, pt.EnergyJ)
			}
		}
	}

	if *frontierOut != "" {
		if err := writeFrontier(rep, *frontierOut); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "diag-explore: frontier written to %s\n", *frontierOut)
	}
}

// parseSpace resolves the -space argument: the built-in paper space,
// inline JSON, or a JSON file. Unknown fields are rejected so a typoed
// axis name cannot silently become "defaults only".
func parseSpace(arg string) (explore.Space, error) {
	if arg == "" || arg == "paper" {
		return explore.PaperSpace(), nil
	}
	data := []byte(arg)
	if !strings.HasPrefix(strings.TrimSpace(arg), "{") {
		b, err := os.ReadFile(arg)
		if err != nil {
			return explore.Space{}, err
		}
		data = b
	}
	var s explore.Space
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return explore.Space{}, fmt.Errorf("parsing space: %w", err)
	}
	return s, nil
}

// writeFrontier writes the report to path: the full JSON report for a
// .json path, frontier CSV otherwise.
func writeFrontier(rep *explore.Report, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".json") {
		err = rep.WriteJSON(f)
	} else {
		err = rep.WriteCSV(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func splitNames(s string) []string {
	var out []string
	for _, n := range strings.Split(s, ",") {
		if n = strings.TrimSpace(n); n != "" {
			out = append(out, n)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "diag-explore:", err)
	os.Exit(1)
}
