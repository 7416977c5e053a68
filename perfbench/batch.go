package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	figures "diag/internal/bench"
	idiag "diag/internal/diag"
	"diag/internal/difftest"
	"diag/internal/exp"
	"diag/internal/explore"
	"diag/internal/fault"
	"diag/internal/journal"
	"diag/internal/workloads"
)

// figure is one paper figure regenerated through figures.Runner.
type figure struct {
	name string
	gen  func(r *figures.Runner, scale int) (*figures.Figure, error)
}

var (
	fig9a  = figure{"fig9a", (*figures.Runner).Fig9a}
	fig9b  = figure{"fig9b", (*figures.Runner).Fig9b}
	fig10a = figure{"fig10a", (*figures.Runner).Fig10a}
	fig11  = figure{"fig11", (*figures.Runner).Fig11}
	fig12  = figure{"fig12", (*figures.Runner).Fig12}
	stall  = figure{"stall", (*figures.Runner).StallBreakdown}
)

// workers is the batch workload's worker count: one per host CPU. The
// probes of the other workloads run serially: small parallel ops on two
// SMT-like vCPUs vary by ±15% with how both CPUs happen to be loaded.
func workers() int { return runtime.NumCPU() }

// workerBusy accumulates the engine's per-job elapsed time of traced
// figure regenerations, for exp.worker_util.
type workerBusy struct {
	busy, wall atomic.Int64 // nanoseconds; wall is multiplied by workers
}

// figureKind regenerates f at scale 1 on n workers. Its table must be
// identical on every repetition and to a serial regeneration.
func figureKind(f figure, n int, util *workerBusy) *kind {
	k := &kind{name: f.name, family: famFigure, est: best}
	k.run = func(tr *tracer, parent int, _ time.Time) (time.Duration, string, error) {
		opt := figures.Options{Workers: n}
		if tr != nil {
			opt.OnProgress = func(p exp.Progress) { util.busy.Add(int64(p.Elapsed)) }
		}
		r := figures.NewRunner(context.Background(), opt)
		var fig *figures.Figure
		d, err := tr.timed("bench.figure", parent, func() error {
			var err error
			fig, err = f.gen(r, 1)
			return err
		})
		if err != nil {
			return 0, "", err
		}
		if tr != nil {
			util.wall.Add(int64(d) * int64(n))
		}
		return d, fig.Table().String(), nil
	}
	if n == 1 {
		// The repetitions themselves are serial runs.
		return k
	}
	k.post = func(k *kind) error {
		fig, err := f.gen(figures.NewRunner(context.Background(), figures.Options{Workers: 1}), 1)
		if err != nil {
			return err
		}
		if fig.Table().String() != k.out {
			return fmt.Errorf("table differs from the serial regeneration")
		}
		return nil
	}
	return k
}

// faultKind runs a warm-forked fault campaign of the given size on
// hotspot/F4C2 on n workers; its report must match a serial run of the
// same seed.
func faultKind(name string, trials, n int, seed int64) (*kind, error) {
	w, _ := workloads.ByName("hotspot")
	img, err := w.Build(workloads.Params{Scale: 1, Threads: 1})
	if err != nil {
		return nil, err
	}
	cfg := idiag.F4C2()
	campaign := func(workers int) *fault.Campaign {
		return &fault.Campaign{Image: img, DiAG: &cfg, Trials: trials, Seed: seed, Workers: workers, Warmup: 2000}
	}
	k := &kind{name: name, family: famJobs, est: best, work: float64(trials), seeded: true}
	k.run = func(tr *tracer, parent int, _ time.Time) (time.Duration, string, error) {
		var rep *fault.Report
		d, err := tr.timed("fault.campaign", parent, func() error {
			var err error
			rep, err = campaign(n).Run(context.Background())
			return err
		})
		if err != nil {
			return 0, "", err
		}
		if len(rep.Trials) != trials {
			return 0, "", fmt.Errorf("%d trials reported, want %d", len(rep.Trials), trials)
		}
		return d, rep.Table(), nil
	}
	if n == 1 {
		// The repetitions themselves are serial runs.
		return k, nil
	}
	k.post = func(k *kind) error {
		rep, err := campaign(1).Run(context.Background())
		if err != nil {
			return err
		}
		if rep.Table() != k.out {
			return fmt.Errorf("report differs from the serial campaign")
		}
		return nil
	}
	return k, nil
}

// difftestKind runs a differential conformance campaign over the whole
// arch matrix on n workers; any divergence fails the op.
func difftestKind(name string, trials, n int, seed int64) *kind {
	k := &kind{name: name, family: famJobs, est: best, work: float64(trials), seeded: true}
	k.run = func(tr *tracer, parent int, _ time.Time) (time.Duration, string, error) {
		var rep *difftest.Report
		d, err := tr.timed("difftest.run", parent, func() error {
			var err error
			rep, err = difftest.Run(context.Background(), difftest.Options{Seed: seed, Trials: trials, Workers: n})
			return err
		})
		if err != nil {
			return 0, "", err
		}
		if len(rep.Diverged) > 0 || len(rep.GeneratorErr) > 0 {
			return 0, "", fmt.Errorf("%d divergent and %d invalid programs", len(rep.Diverged), len(rep.GeneratorErr))
		}
		return d, rep.Format(), nil
	}
	return k
}

// exploreSpace is the batch workload's design space: 2 ISAs x 3
// cluster counts x 2 L1D sizes around the paper's F4C2 point.
func exploreSpace(name string, clusters []int) explore.Space {
	return explore.Space{
		Name:     name,
		ISA:      []string{"RV32I", "RV32IMF"},
		Clusters: clusters,
		L1D:      explore.MemLevel{Sizes: []int{32 << 10, 64 << 10}},
	}
}

// exploreKind evaluates a space on n workers with a fresh fsync'd
// journal per op; the frontier CSV must match a serial, unjournaled
// exploration.
func exploreKind(name string, space explore.Space, wls []string, n int, dir string) (*kind, error) {
	plan, err := explore.NewPlan(space, wls)
	if err != nil {
		return nil, err
	}
	o := explore.Options{Workloads: wls, Scale: 1}
	path := filepath.Join(dir, strings.ReplaceAll(name, "/", "-")+".journal")
	k := &kind{name: name, family: famJobs, est: best, work: float64(plan.Jobs)}
	k.run = func(tr *tracer, parent int, _ time.Time) (time.Duration, string, error) {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return 0, "", err
		}
		var csv bytes.Buffer
		d, err := tr.timed("explore.run", parent, func() error {
			j, err := journal.Create(path, plan.Manifest(o))
			if err != nil {
				return err
			}
			oj := o
			oj.Workers, oj.Journal = n, j
			rep, err := explore.Explore(context.Background(), space, oj)
			if cerr := j.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
			return rep.WriteCSV(&csv)
		})
		if err != nil {
			return 0, "", err
		}
		return d, csv.String(), nil
	}
	if n == 1 {
		// The repetitions themselves are serial runs.
		return k, nil
	}
	k.post = func(k *kind) error {
		oj := o
		oj.Workers = 1
		rep, err := explore.Explore(context.Background(), space, oj)
		if err != nil {
			return err
		}
		var csv bytes.Buffer
		if err := rep.WriteCSV(&csv); err != nil {
			return err
		}
		if csv.String() != k.out {
			return fmt.Errorf("frontier differs from the serial exploration")
		}
		return nil
	}
	return k, nil
}
