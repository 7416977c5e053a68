// Package hostbench measures host-side simulator throughput: how many
// simulated instructions per host second (sim-MIPS) each machine model
// sustains. The paper's methodology (§7.1) leans on fast abstract
// simulation to sweep configurations, and PRs 1–2 multiply every
// step-loop nanosecond by millions of Monte Carlo trials, so the
// simulator's own speed is a tracked artifact: `make bench-host` emits
// BENCH_host.json and CI compares each PR against the committed
// baseline.
//
// The same cases run two ways: as `go test -bench=BenchmarkHost`
// sub-benchmarks (hostbench_test.go) for ad-hoc benchstat work, and via
// Measure from cmd/diag-bench for the JSON artifact. Step cases use b.N
// as the simulated-instruction budget, so ns/op is nanoseconds per
// simulated instruction and allocs/op is allocations per step — the
// steady-state loops must report zero.
package hostbench

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"testing"

	"diag"
	idiag "diag/internal/diag"
	"diag/internal/isa"
	"diag/internal/iss"
	"diag/internal/mem"
	"diag/internal/ooo"
	"diag/internal/workloads"
)

// SchemaV1 identifies the BENCH_host.json format.
const SchemaV1 = "diag-hostbench/v1"

// Case is one named throughput measurement, runnable both as a testing
// sub-benchmark and through Measure.
type Case struct {
	Name  string // model/kernel, e.g. "iss/step" or "diag/hotspot"
	Bench func(b *testing.B)
}

// e2eKernels are the workloads the end-to-end cases run: one
// memory-bound Rodinia kernel and two SPEC kernels with branchy integer
// control flow — together they exercise the fetch, memory, and control
// paths of every model.
var e2eKernels = []string{"hotspot", "x264", "mcf"}

// Cases returns every registered measurement.
func Cases() []Case {
	cs := []Case{
		{Name: "iss/step", Bench: benchISSStep},
		{Name: "diag/step", Bench: benchDiAGStep},
		{Name: "ooo/step", Bench: benchOoOStep},
	}
	for _, k := range e2eKernels {
		k := k
		cs = append(cs,
			Case{Name: "iss/" + k, Bench: func(b *testing.B) {
				var sb [3]uint64 // superblock hits, misses, instructions
				benchE2E(b, k, func(b *testing.B, img *mem.Image) uint64 { return runISS(b, img, &sb) })
				reportSuperblocks(b, sb[0], sb[1], sb[2])
			}},
			Case{Name: "diag/" + k, Bench: func(b *testing.B) { benchE2E(b, k, runTimed(idiag.F4C16(), idiag.NewMachine)) }},
			Case{Name: "ooo/" + k, Bench: func(b *testing.B) { benchE2E(b, k, runTimed(ooo.Baseline(), ooo.NewMachine)) }},
		)
	}
	// Sharded-simulation rows: the same 4-way-partitioned kernel on the
	// 4-ring machine and 4-core baseline, serial vs sharded across 4
	// host goroutines. Simulated results are byte-identical between the
	// pair; the ns/op ratio is the host-parallel e2e speedup.
	mt4, mc4 := idiag.MultiRing(idiag.F4C16(), 4, 4), ooo.BaselineMulticore(4)
	cs = append(cs,
		Case{Name: "diag/mt4", Bench: func(b *testing.B) { benchE2EMulti(b, "hotspot", 4, mt4, idiag.NewMachine, 1) }},
		Case{Name: "diag/mt4-shard4", Bench: func(b *testing.B) { benchE2EMulti(b, "hotspot", 4, mt4, idiag.NewMachine, 4) }},
		Case{Name: "ooo/mc4", Bench: func(b *testing.B) { benchE2EMulti(b, "hotspot", 4, mc4, ooo.NewMachine, 1) }},
		Case{Name: "ooo/mc4-shard4", Bench: func(b *testing.B) { benchE2EMulti(b, "hotspot", 4, mc4, ooo.NewMachine, 4) }},
	)
	return cs
}

// CaseByName looks a case up.
func CaseByName(name string) (Case, bool) {
	for _, c := range Cases() {
		if c.Name == name {
			return c, true
		}
	}
	return Case{}, false
}

// stepLoop is the hot-loop program of the step cases: the same
// 5-instruction arithmetic loop the repo's figure benchmarks use, with
// an iteration bound far beyond any instruction budget so the run is
// always cut off by the budget, never by the program.
func stepLoop() (*diag.Program, error) {
	return diag.Assemble(`
	li   t0, 0
	li   t1, 1000000000
loop:
	addi t2, t0, 1
	xor  t3, t2, t1
	and  t4, t3, t2
	addi t0, t0, 1
	blt  t0, t1, loop
	ebreak
`)
}

// reportMIPS attaches the headline metric: simulated instructions per
// host microsecond of timed benchmark execution.
func reportMIPS(b *testing.B, inst uint64) {
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(inst)/s/1e6, "sim-MIPS")
	}
}

// reportSuperblocks attaches the superblock engine's columns: the
// fraction of block dispatches served from the block cache and the mean
// number of instructions retired per cached-block dispatch.
func reportSuperblocks(b *testing.B, hits, misses, insts uint64) {
	if hits+misses == 0 {
		return
	}
	b.ReportMetric(float64(hits)/float64(hits+misses), "sb-hit-rate")
	if hits > 0 {
		b.ReportMetric(float64(insts)/float64(hits), "sb-block-len")
	}
}

// benchISSStep measures the golden ISS step loop: b.N simulated
// instructions on a machine built outside the timer, so ns/op and
// allocs/op are per simulated instruction.
func benchISSStep(b *testing.B) {
	img, err := stepLoop()
	if err != nil {
		b.Fatal(err)
	}
	m := mem.New()
	entry, err := img.Load(m)
	if err != nil {
		b.Fatal(err)
	}
	cpu := iss.New(m, entry)
	b.ReportAllocs()
	b.ResetTimer()
	retired := cpu.Run(uint64(b.N))
	if cpu.Err != nil {
		b.Fatal(cpu.Err)
	}
	if retired != uint64(b.N) {
		b.Fatalf("retired %d of %d budgeted instructions", retired, b.N)
	}
	reportMIPS(b, retired)
	hits, misses, insts := cpu.SuperblockStats()
	reportSuperblocks(b, hits, misses, insts)
}

// benchDiAGStep measures the DiAG ring timing model under an
// instruction budget of b.N; hitting the budget is the expected exit.
func benchDiAGStep(b *testing.B) {
	img, err := stepLoop()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	_, _, err = diag.Run(diag.F4C16(), img, diag.WithMaxInstructions(uint64(b.N)))
	if err != nil && !errors.Is(err, diag.ErrMaxInstructions) {
		b.Fatal(err)
	}
	// The machine stops at exactly the budget, so b.N is the retired
	// count (the error path returns zero Stats by design).
	reportMIPS(b, uint64(b.N))
}

// benchOoOStep measures the out-of-order baseline the same way.
func benchOoOStep(b *testing.B) {
	img, err := stepLoop()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	_, err = diag.OoO(diag.Baseline()).Run(img, diag.WithMaxInstructions(uint64(b.N)))
	if err != nil && !errors.Is(err, diag.ErrMaxInstructions) {
		b.Fatal(err)
	}
	reportMIPS(b, uint64(b.N))
}

// buildKernel builds the named workload's threads-way partitioned
// image, failing the benchmark on error.
func buildKernel(b *testing.B, kernel string, threads int) *mem.Image {
	b.Helper()
	w, ok := workloads.ByName(kernel)
	if !ok {
		b.Fatalf("unknown workload %q", kernel)
	}
	img, err := w.Build(workloads.Params{Threads: threads})
	if err != nil {
		b.Fatal(err)
	}
	return img
}

// benchE2E measures run executing one internal/workloads kernel to
// completion per iteration. Each iteration needs a fresh machine (the
// run mutates memory), so run builds and loads it with the timer
// stopped — ns/op and allocs/op measure simulation, not setup — and
// returns the retired-instruction count.
func benchE2E(b *testing.B, kernel string, run func(*testing.B, *mem.Image) uint64) {
	img := buildKernel(b, kernel, 1)
	b.ReportAllocs()
	b.ResetTimer()
	var total uint64
	for i := 0; i < b.N; i++ {
		total += run(b, img)
	}
	reportMIPS(b, total)
}

// runISS is benchE2E's golden-ISS run; it adds the run's superblock
// hits, misses, and instructions to sb.
func runISS(b *testing.B, img *mem.Image, sb *[3]uint64) uint64 {
	b.StopTimer()
	m := mem.New()
	entry, err := img.Load(m)
	if err != nil {
		b.Fatal(err)
	}
	cpu := iss.New(m, entry)
	// Single-hart boot convention (tp = hart id, gp = hart count),
	// matching diag.ISS(): without it the partitioned kernels divide by
	// a zero thread count and exit after a handful of instructions, so
	// the row measures nothing.
	cpu.X[isa.TP] = 0
	cpu.X[isa.GP] = 1
	cpu.Run(1) // fault in the lazy predecode/superblock caches
	b.StartTimer()
	cpu.Run(1 << 40)
	if cpu.Err != nil {
		b.Fatal(cpu.Err)
	}
	if !cpu.Halted {
		b.Fatal("instruction budget exhausted")
	}
	h, miss, n := cpu.SuperblockStats()
	sb[0], sb[1], sb[2] = sb[0]+h, sb[1]+miss, sb[2]+n
	return cpu.Instret
}

// timed is the engine surface (internal/multi) both timing machines
// share, down to the per-unit retired counts U exposes.
type timed[U interface{ Retired() uint64 }] interface {
	SetShards(n int)
	Run() error
	Retired() uint64
	Unit(i int) U
}

// newMachine builds a machine with the benchmark timer stopped, so e2e
// rows measure simulation rather than setup.
func newMachine[C any, M interface{ SetShards(int) }](b *testing.B, cfg C, img *mem.Image, shards int, build func(C, *mem.Image) (M, error)) M {
	b.StopTimer()
	mach, err := build(cfg, img)
	if err != nil {
		b.Fatal(err)
	}
	mach.SetShards(shards)
	b.StartTimer()
	return mach
}

// runTimed returns benchE2E's run of the machine build makes from cfg.
func runTimed[C any, U interface{ Retired() uint64 }, M timed[U]](cfg C, build func(C, *mem.Image) (M, error)) func(*testing.B, *mem.Image) uint64 {
	return func(b *testing.B, img *mem.Image) uint64 {
		mach := newMachine(b, cfg, img, 1, build)
		if err := mach.Run(); err != nil {
			b.Fatal(err)
		}
		return mach.Retired()
	}
}

// benchE2EMulti measures a multi-ring DiAG machine or multicore
// baseline running the partitioned form of a kernel, spread across the
// given shard count; cfg has units rings or cores. The shard-util metric is the retired-instruction
// balance across units (1.0 = perfectly even partitions), the ceiling
// on the host-parallel speedup sharding can reach.
func benchE2EMulti[C any, U interface{ Retired() uint64 }, M timed[U]](b *testing.B, kernel string, units int, cfg C, build func(C, *mem.Image) (M, error), shards int) {
	img := buildKernel(b, kernel, units)
	b.ReportAllocs()
	b.ResetTimer()
	var total uint64
	var util float64
	for i := 0; i < b.N; i++ {
		mach := newMachine(b, cfg, img, shards, build)
		if err := mach.Run(); err != nil {
			b.Fatal(err)
		}
		st := mach.Retired()
		total += st
		var max uint64
		for u := 0; u < units; u++ {
			if n := mach.Unit(u).Retired(); n > max {
				max = n
			}
		}
		if max > 0 {
			util = float64(st) / (float64(units) * float64(max))
		}
	}
	reportMIPS(b, total)
	b.ReportMetric(util, "shard-util")
}

// Result is one case's measurement.
type Result struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	SimMIPS     float64 `json:"sim_mips"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`

	// Superblock columns (iss rows): the fraction of block dispatches
	// served from the block cache and the mean instructions retired per
	// cached-block dispatch.
	SBHitRate  float64 `json:"sb_hit_rate,omitempty"`
	SBBlockLen float64 `json:"sb_block_len,omitempty"`
	// ShardUtil (multi-ring/multi-core rows): retired-instruction
	// balance across rings/cores, the ceiling on sharded speedup.
	ShardUtil float64 `json:"shard_util,omitempty"`
}

// Report is the BENCH_host.json artifact.
type Report struct {
	Schema    string   `json:"schema"`
	GoVersion string   `json:"go_version"`
	GOOS      string   `json:"goos"`
	GOARCH    string   `json:"goarch"`
	NumCPU    int      `json:"num_cpu"`
	Results   []Result `json:"results"`
}

// Measure runs the named cases (all of them when names is empty) under
// the standard testing benchmark driver and collects a Report. Each
// case self-calibrates to roughly one second of wall time, exactly as
// `go test -bench` would.
func Measure(names []string) (*Report, error) {
	sel := Cases()
	if len(names) > 0 {
		sel = sel[:0]
		for _, n := range names {
			c, ok := CaseByName(n)
			if !ok {
				return nil, fmt.Errorf("hostbench: unknown case %q", n)
			}
			sel = append(sel, c)
		}
	}
	rep := &Report{
		Schema:    SchemaV1,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
	}
	for _, c := range sel {
		r := testing.Benchmark(c.Bench)
		if r.N == 0 {
			return nil, fmt.Errorf("hostbench: case %q failed (see benchmark log)", c.Name)
		}
		rep.Results = append(rep.Results, Result{
			Name:        c.Name,
			N:           r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			SimMIPS:     r.Extra["sim-MIPS"],
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			SBHitRate:   r.Extra["sb-hit-rate"],
			SBBlockLen:  r.Extra["sb-block-len"],
			ShardUtil:   r.Extra["shard-util"],
		})
	}
	return rep, nil
}

// WriteJSON emits the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadReport parses a BENCH_host.json document and validates its schema.
func ReadReport(data []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("hostbench: parsing report: %w", err)
	}
	if r.Schema != SchemaV1 {
		return nil, fmt.Errorf("hostbench: unsupported schema %q (want %q)", r.Schema, SchemaV1)
	}
	return &r, nil
}
