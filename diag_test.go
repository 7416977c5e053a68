package diag_test

import (
	"fmt"
	"strings"
	"testing"

	"diag"
)

const tinyLoop = `
	li   t0, 0
	li   t1, 50
loop:
	addi t0, t0, 1
	blt  t0, t1, loop
	li   t2, 0x700
	sw   t0, 0(t2)
	ebreak
`

func TestPublicAssembleRun(t *testing.T) {
	img, err := diag.Assemble(tinyLoop)
	if err != nil {
		t.Fatal(err)
	}
	res, err := diag.DiAG(diag.F4C2()).Run(img)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mem.LoadWord(0x700) != 50 {
		t.Errorf("result = %d", res.Mem.LoadWord(0x700))
	}
	if res.Cycles <= 0 || res.DiAG.Cycles != res.Cycles || res.DiAG.IPC() <= 0 {
		t.Error("stats empty")
	}
	if !strings.Contains(diag.Disassemble(img), "blt") {
		t.Error("disassembly missing instruction")
	}
}

// TestPublicBaselineComparison runs the same program on the
// out-of-order baseline through the Target API.
func TestPublicBaselineComparison(t *testing.T) {
	img, err := diag.Assemble(tinyLoop)
	if err != nil {
		t.Fatal(err)
	}
	res, err := diag.OoO(diag.Baseline()).Run(img)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mem.LoadWord(0x700) != 50 || res.Cycles <= 0 || res.Baseline.Cycles != res.Cycles {
		t.Error("baseline run wrong")
	}
}

// TestPublicISS runs the same program on the golden ISS target: it
// halts with the right answer and reports no cycles.
func TestPublicISS(t *testing.T) {
	img, err := diag.Assemble(tinyLoop)
	if err != nil {
		t.Fatal(err)
	}
	res, err := diag.ISS().Run(img, diag.WithMaxInstructions(10_000))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done || !res.CPU.Halted || res.Mem.LoadWord(0x700) != 50 || res.Cycles != 0 {
		t.Error("ISS run wrong")
	}
}

func TestPublicEnergyAndArea(t *testing.T) {
	img, err := diag.Assemble(tinyLoop)
	if err != nil {
		t.Fatal(err)
	}
	cfg := diag.F4C2()
	res, err := diag.DiAG(cfg).Run(img)
	if err != nil {
		t.Fatal(err)
	}
	e := diag.Energy(cfg, *res.DiAG)
	if e.Total() <= 0 {
		t.Error("no energy")
	}
	bres, err := diag.OoO(diag.Baseline()).Run(img)
	if err != nil {
		t.Fatal(err)
	}
	be := diag.BaselineEnergy(diag.Baseline(), *bres.Baseline, cfg.FreqMHz)
	if diag.Efficiency(e, be) <= 0 {
		t.Error("efficiency must be positive")
	}
	if len(diag.Area(cfg).Components) == 0 {
		t.Error("area report empty")
	}
}

func TestPublicWorkloads(t *testing.T) {
	if len(diag.Workloads()) != 27 {
		t.Errorf("workload count = %d", len(diag.Workloads()))
	}
	w, ok := diag.WorkloadByName("hotspot")
	if !ok || w.Suite != diag.Rodinia {
		t.Error("hotspot lookup failed")
	}
	img, err := w.Build(diag.WorkloadParams{Scale: 1, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := diag.DiAG(diag.F4C2()).Run(img)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Check(res.Mem, diag.WorkloadParams{Scale: 1, Threads: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestPublicTables(t *testing.T) {
	if !strings.Contains(diag.Table1().String(), "Reg Lanes") {
		t.Error("Table1 malformed")
	}
	if !strings.Contains(diag.Table2().String(), "F4C16") {
		t.Error("Table2 malformed")
	}
	if !strings.Contains(diag.Table3().String(), "REGLANE") {
		t.Error("Table3 malformed")
	}
}

func ExampleAssemble() {
	img, _ := diag.Assemble(`
		li   a0, 6
		li   a1, 7
		mul  a2, a0, a1
		li   t0, 0x700
		sw   a2, 0(t0)
		ebreak
	`)
	res, _ := diag.DiAG(diag.F4C2()).Run(img)
	fmt.Println(res.Mem.LoadWord(0x700))
	// Output: 42
}

func ExampleMultiRing() {
	cfg := diag.MultiRing(diag.F4C32(), 16, 2)
	fmt.Println(cfg.Rings, cfg.Clusters, cfg.TotalPEs())
	// Output: 16 2 512
}
