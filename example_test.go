package diag_test

import (
	"context"
	"fmt"
	"log"

	"diag"
)

// ExampleTarget assembles a small counting loop and executes it on a
// paper-configuration DiAG machine. Retired-instruction counts are
// architectural, so the output is stable across timing-model changes.
func ExampleTarget() {
	img, err := diag.Assemble(`
	    li   t0, 0
	    li   t1, 100
	loop:
	    addi t0, t0, 1
	    blt  t0, t1, loop
	    ebreak
	`)
	if err != nil {
		log.Fatal(err)
	}
	res, err := diag.DiAG(diag.F4C2()).Run(img)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("retired:", res.Retired)
	// Output:
	// retired: 202
}

// ExampleTarget_withObserver attaches the cycle-level observability layer
// to a run: an EventCollector retaining the event stream and a Metrics
// registry aggregating it, teed behind one option. The pinned counts
// are the package's golden event counts for this kernel (see
// events_test.go): the loop body lives in one I-line, every one of the
// 99 taken backward branches reuses the constructed datapath, and the
// PC lane retires 202 instructions.
func ExampleTarget_withObserver() {
	img, err := diag.Assemble(`
	    li   t0, 0
	    li   t1, 100
	loop:
	    addi t0, t0, 1
	    blt  t0, t1, loop
	    ebreak
	`)
	if err != nil {
		log.Fatal(err)
	}
	col := diag.NewEventCollector(0)
	met := diag.NewMetrics(0)
	_, err = diag.DiAG(diag.F4C2()).Run(img,
		diag.WithObserver(diag.ObserverTee(col, met)))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("retires:", col.Count(diag.EventRetire))
	fmt.Println("reuse hits:", col.Count(diag.EventClusterReuse))
	fmt.Println("line loads:", met.Counter("ev/cluster-load"))
	// col.WriteChromeTrace(w, diag.ChromeTraceOptions{}) exports the
	// stream for https://ui.perfetto.dev.

	// Output:
	// retires: 202
	// reuse hits: 99
	// line loads: 1
}

// ExampleSweep fans independent simulations — the same program on a
// DiAG machine and on the out-of-order baseline — across a worker
// pool. Results come back in job order regardless of which finishes
// first.
func ExampleSweep() {
	img, err := diag.Assemble(`
	    li   a0, 10
	    li   a1, 0
	loop:
	    add  a1, a1, a0
	    addi a0, a0, -1
	    bnez a0, loop
	    ebreak
	`)
	if err != nil {
		log.Fatal(err)
	}
	results, err := diag.Sweep(context.Background(), []diag.SweepJob{
		diag.TargetJob("sum/F4C2", diag.DiAG(diag.F4C2()), img),
		diag.TargetJob("sum/ooo", diag.OoO(diag.Baseline()), img),
	}, diag.SweepOptions{Workers: 2})
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range results {
		fmt.Printf("%s retired %d\n", r.Name, r.Value.(*diag.Result).Retired)
	}
	// Output:
	// sum/F4C2 retired 32
	// sum/ooo retired 32
}

// ExampleFaultCampaign injects seed-derived single-bit faults into a
// DiAG machine and classifies every run against the golden ISS. A
// fixed seed replays the identical campaign at any worker count.
func ExampleFaultCampaign() {
	img, err := diag.Assemble(`
	    li   t0, 0
	    li   t1, 50
	loop:
	    addi t0, t0, 1
	    blt  t0, t1, loop
	    ebreak
	`)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := diag.FaultCampaign(context.Background(), diag.DiAG(diag.F4C2()), img,
		diag.WithFaultTrials(20),
		diag.WithFaultSeed(42),
		diag.WithFaultWorkers(4),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("trials:", len(rep.Trials))
	fmt.Println("golden instret:", rep.GoldenInstret)
	// Output:
	// trials: 20
	// golden instret: 102
}

// ExampleExplore expands a tiny two-axis design space, evaluates every
// candidate on one workload, and prints its Pareto frontier over
// cycles × area × energy. The frontier is deterministic: I4C2's
// architecture is the fast point, and the half-width machine survives
// as the small one.
func ExampleExplore() {
	space := diag.Space{
		Name:          "tiny",
		ISA:           []string{"RV32I"},
		PEsPerCluster: []int{8, 16},
		Clusters:      []int{2, 4},
		L1D:           diag.SpaceMemLevel{Sizes: []int{32 << 10}},
		L2:            diag.SpaceMemLevel{Sizes: []int{0}},
	}
	rep, err := diag.Explore(context.Background(), space, diag.ExploreOptions{
		Workloads: []string{"pathfinder"},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("candidates:", rep.Candidates)
	for _, p := range rep.Frontiers[0].Points {
		fmt.Println("frontier:", p.Label)
	}
	// Output:
	// candidates: 4
	// frontier: I4C2
	// frontier: ip8c2r1-d32K-L0
}
