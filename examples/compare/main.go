// Compare runs one benchmark workload across every DiAG configuration
// and the out-of-order baseline, reproducing a single row of the paper's
// Figure 9/10 experiments with full statistics.
package main

import (
	"flag"
	"fmt"
	"log"

	"diag"
	"diag/internal/stats"
)

func main() {
	name := flag.String("workload", "hotspot", "benchmark kernel to run")
	scale := flag.Int("scale", 1, "problem-size knob")
	flag.Parse()

	w, ok := diag.WorkloadByName(*name)
	if !ok {
		log.Fatalf("unknown workload %q", *name)
	}
	p := diag.WorkloadParams{Scale: *scale, Threads: 1}

	build := func() *diag.Program {
		img, err := w.Build(p)
		if err != nil {
			log.Fatal(err)
		}
		return img
	}

	baseRes, err := diag.OoO(diag.Baseline()).Run(build())
	if err != nil {
		log.Fatal(err)
	}
	if err := w.Check(baseRes.Mem, p); err != nil {
		log.Fatal(err)
	}
	base := *baseRes.Baseline

	t := stats.NewTable(
		fmt.Sprintf("%s (%s, %s, scale %d), single thread", w.Name, w.Suite, w.Class, *scale),
		"machine", "cycles", "IPC", "rel. perf", "energy (J)", "efficiency")
	be := diag.BaselineEnergy(diag.Baseline(), base, 2000)
	t.AddRowf("OoO 8-wide", fmt.Sprint(base.Cycles), base.IPC(), 1.0,
		fmt.Sprintf("%.3g", be.Total()), 1.0)

	for _, cfg := range []diag.Config{diag.F4C2(), diag.F4C16(), diag.F4C32()} {
		res, err := diag.DiAG(cfg).Run(build())
		if err != nil {
			log.Fatal(err)
		}
		st := *res.DiAG
		if err := w.Check(res.Mem, p); err != nil {
			log.Fatal(err)
		}
		e := diag.Energy(cfg, st)
		t.AddRowf("DiAG "+cfg.Name, fmt.Sprint(st.Cycles), st.IPC(),
			float64(base.Cycles)/float64(st.Cycles),
			fmt.Sprintf("%.3g", e.Total()), diag.Efficiency(e, be))
	}
	fmt.Println(t)
}
