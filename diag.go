// Package diag is a pure-Go reproduction of DiAG, the dataflow-inspired
// general-purpose processor architecture of Wang & Kim (ASPLOS 2021),
// together with everything needed to regenerate the paper's evaluation:
// an RV32IMF assembler and golden ISS, a cycle-level DiAG machine model
// (register lanes, processing clusters, dataflow rings, datapath reuse,
// SIMT thread pipelining), an aggressive out-of-order multicore baseline,
// area/power models seeded from the paper's synthesis results, and
// twenty-seven benchmark kernels covering its Rodinia / SPEC CPU2017
// evaluation.
//
// # Quick start
//
//	img, err := diag.Assemble(`
//	    li   t0, 0
//	    li   t1, 100
//	loop:
//	    addi t0, t0, 1
//	    blt  t0, t1, loop
//	    ebreak
//	`)
//	res, err := diag.DiAG(diag.F4C16()).Run(img)
//	fmt.Println(res.Cycles, res.DiAG.IPC())
//
// Every machine — the golden ISS, a DiAG processor, the out-of-order
// baseline — is a Target built by ISS, DiAG, or OoO, and runs the same
// way. Runs accept functional options for cancellation, budgets,
// interrupts, and tracing, and failures map onto a typed taxonomy (ErrTimeout,
// ErrMaxCycles, ErrMaxInstructions, ErrBadProgram):
//
//	res, err := diag.DiAG(cfg).Run(img,
//	    diag.WithContext(ctx), diag.WithMaxCycles(1_000_000))
//	if errors.Is(err, diag.ErrMaxCycles) { ... }
//
// To compare against the out-of-order baseline, or to check the
// architectural result on the golden ISS:
//
//	base, err := diag.OoO(diag.Baseline()).Run(img)
//	speedup := float64(base.Cycles) / float64(res.Cycles)
//	ref, err := diag.ISS().Run(img)
//
// To regenerate a paper figure, use a FigureRunner; its output is
// byte-identical at any worker count:
//
//	runner := diag.NewFigureRunner(ctx, diag.FigureOptions{Workers: 8})
//	fig, err := runner.Fig9a(1)
//	fmt.Println(fig.Table())
//
// Independent simulations fan out across a worker pool with Sweep:
//
//	results, err := diag.Sweep(ctx, []diag.SweepJob{
//	    diag.TargetJob("loop/F4C16", diag.DiAG(diag.F4C16()), img),
//	    diag.TargetJob("loop/OoO", diag.OoO(diag.Baseline()), img),
//	}, diag.SweepOptions{})
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record of every table and figure.
package diag

import (
	"diag/internal/asm"
	"diag/internal/bench"
	idiag "diag/internal/diag"
	"diag/internal/mem"
	"diag/internal/ooo"
	"diag/internal/power"
	"diag/internal/workloads"
)

// Program is an assembled, loadable program image.
type Program = mem.Image

// Memory is the byte-addressable memory shared by all machine models.
type Memory = mem.Memory

// Assemble translates RV32IMF assembly (plus the simt.s/simt.e DiAG
// extensions) into a loadable program. See internal/asm for the accepted
// syntax.
func Assemble(source string) (*Program, error) { return asm.Assemble(source) }

// Disassemble renders a program's text section as annotated assembly.
func Disassemble(p *Program) string { return asm.Disassemble(p) }

// ---- DiAG machine ----

// Config parameterizes a DiAG processor (Table 2 of the paper plus
// timing constants).
type Config = idiag.Config

// Stats are the counters a DiAG run produces.
type Stats = idiag.Stats

// Stall-source kinds (§7.3.2).
const (
	StallMemory  = idiag.StallMemory
	StallControl = idiag.StallControl
	StallOther   = idiag.StallOther
)

// Paper Table 2 configurations.
var (
	I4C2  = idiag.I4C2
	F4C2  = idiag.F4C2
	F4C16 = idiag.F4C16
	F4C32 = idiag.F4C32
)

// MultiRing reshapes a configuration into rings×clusters spatial form
// (the paper's "16-by-2" multi-thread format).
func MultiRing(cfg Config, rings, clustersPerRing int) Config {
	return idiag.MultiRing(cfg, rings, clustersPerRing)
}

// ---- Out-of-order baseline ----

// BaselineConfig parameterizes the out-of-order comparator (§7.1).
type BaselineConfig = ooo.Config

// BaselineStats are the counters a baseline run produces.
type BaselineStats = ooo.Stats

// Baseline returns the single-core 8-issue baseline configuration.
func Baseline() BaselineConfig { return ooo.Baseline() }

// BaselineMulticore returns the paper's 12-core baseline.
func BaselineMulticore(cores int) BaselineConfig { return ooo.BaselineMulticore(cores) }

// ---- Energy and area ----

// EnergyBreakdown is energy by component in joules (Figure 11's
// categories).
type EnergyBreakdown = power.Breakdown

// Energy estimates the energy of a DiAG run.
func Energy(cfg Config, st Stats) EnergyBreakdown { return power.DiAGEnergy(cfg, st) }

// BaselineEnergy estimates the energy of a baseline run at the given
// clock.
func BaselineEnergy(cfg BaselineConfig, st BaselineStats, freqMHz int) EnergyBreakdown {
	return power.OoOEnergy(cfg, st, freqMHz)
}

// Efficiency returns baseline energy over DiAG energy (>1 favours DiAG).
func Efficiency(diagE, baseE EnergyBreakdown) float64 { return power.Efficiency(diagE, baseE) }

// AreaReport is the Table 3-shaped area/power breakdown.
type AreaReport = power.AreaReport

// Area builds the area/power breakdown for cfg.
func Area(cfg Config) AreaReport { return power.DiAGArea(cfg) }

// ---- Workloads ----

// Workload is one of the twenty-seven benchmark kernels.
type Workload = workloads.Workload

// WorkloadParams selects problem size and execution shape.
type WorkloadParams = workloads.Params

// Workload suites.
const (
	Rodinia = workloads.Rodinia
	SPEC    = workloads.SPEC
)

// Workloads returns every registered benchmark kernel.
func Workloads() []Workload { return workloads.All() }

// WorkloadByName looks up one benchmark kernel.
func WorkloadByName(name string) (Workload, bool) { return workloads.ByName(name) }

// ---- Paper figures and tables ----

// Figure is one regenerated evaluation artifact.
type Figure = bench.Figure

// Table generators. Figures are regenerated through a FigureRunner.
var (
	Table1 = bench.Table1
	Table2 = bench.Table2
	Table3 = bench.Table3
)
