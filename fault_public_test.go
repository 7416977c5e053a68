package diag_test

import (
	"context"
	"strings"
	"testing"

	"diag"
)

// sumKernel is a small loop with real output: the fault-campaign tests
// need a program whose memory digest reflects its computation.
const sumKernel = `
	li x5, 0
	li x6, 32
	li x28, 0
loop:
	add x28, x28, x5
	addi x5, x5, 1
	blt x5, x6, loop
	li x31, 4096
	sw x28, 0(x31)
	ebreak
`

func TestFaultCampaignPublicAPI(t *testing.T) {
	img := mustAssemble(t, sumKernel)
	rep, err := diag.FaultCampaign(context.Background(), diag.DiAG(diag.F4C2()), img,
		diag.WithFaultTrials(30),
		diag.WithFaultSeed(42),
		diag.WithFaultWorkers(4),
		diag.WithFaultSites(diag.FaultSiteLane, diag.FaultSitePC))
	if err != nil {
		t.Fatalf("FaultCampaign: %v", err)
	}
	if len(rep.Trials) != 30 {
		t.Fatalf("got %d trials, want 30", len(rep.Trials))
	}
	for _, tr := range rep.Trials {
		if c := tr.Fault.Class; c != diag.FaultSiteLane && c != diag.FaultSitePC {
			t.Fatalf("trial used site %v outside WithFaultSites", c)
		}
	}
	if !strings.Contains(rep.Table(), "TOTAL") {
		t.Fatalf("table missing TOTAL row:\n%s", rep.Table())
	}

	// Same seed replays the identical campaign.
	rep2, err := diag.FaultCampaign(context.Background(), diag.DiAG(diag.F4C2()), img,
		diag.WithFaultTrials(30), diag.WithFaultSeed(42), diag.WithFaultWorkers(1),
		diag.WithFaultSites(diag.FaultSiteLane, diag.FaultSitePC))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Table() != rep2.Table() {
		t.Fatal("fixed-seed campaign not reproducible across worker counts")
	}

	// The baseline target accepts the same options.
	brep, err := diag.FaultCampaign(context.Background(), diag.OoO(diag.Baseline()), img,
		diag.WithFaultTrials(10), diag.WithFaultSeed(7))
	if err != nil {
		t.Fatalf("FaultCampaign on the baseline: %v", err)
	}
	if len(brep.Trials) != 10 {
		t.Fatalf("baseline: got %d trials, want 10", len(brep.Trials))
	}
}

func TestParseFaultSites(t *testing.T) {
	sites, err := diag.ParseFaultSites("lane,mem")
	if err != nil || len(sites) != 2 {
		t.Fatalf("sites = %v, err = %v", sites, err)
	}
	if _, err := diag.ParseFaultSites("nope"); err == nil {
		t.Fatal("bad site list accepted")
	}
}

func TestDegradationSweepPublicAPI(t *testing.T) {
	img := mustAssemble(t, sumKernel)
	points, err := diag.DegradationSweep(context.Background(), diag.F4C16(), img, 4, 2)
	if err != nil {
		t.Fatalf("DegradationSweep: %v", err)
	}
	if len(points) != 5 {
		t.Fatalf("got %d points, want 5", len(points))
	}
	if points[0].Slowdown != 1.0 || points[0].Disabled != 0 {
		t.Fatalf("healthy point wrong: %+v", points[0])
	}
	if !strings.Contains(diag.DegradationTable("F4C16", points), "disabled") {
		t.Fatal("degradation table missing header")
	}
}
