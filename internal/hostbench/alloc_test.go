package hostbench

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"diag"
	"diag/internal/asm"
	idiag "diag/internal/diag"
	"diag/internal/iss"
	"diag/internal/mem"
	"diag/internal/ooo"
	"diag/internal/workloads"
)

// measured runs f. Its frame marks the call tree whose allocations
// allocs counts, so it must never be inlined.
//
//go:noinline
func measured(f func()) { f() }

var measuredName = runtime.FuncForPC(reflect.ValueOf(measured).Pointer()).Name()

// allocs returns how many heap objects, and how many bytes, f's own
// call tree allocates.
//
// A runtime.MemStats difference cannot pin this exactly: it counts the
// whole process, and the Go runtime allocates on its own at arbitrary
// moments (a new OS thread's m, g0 and gsignal and their profiling
// stacks — a 5-object, 5248-byte burst when sysmon or a wakeup starts
// an M — and the sudogs of GC mark workers). Those landed in the timed
// window now and then and read as 4097+ B/op. Instead, every
// allocation is profiled (MemProfileRate 1 samples each one, so none
// is missed) and only those whose stack passes through measured count.
// Allocations made by the runtime on other goroutines or on the system
// stack never carry that frame. One limit: pointer-free objects under
// 16 B that fit the current tiny-allocator block are not profiled, so
// a plain run counts those per block; the race build (make check)
// gives each its own block, so there every one counts.
func allocs(t *testing.T, f func()) (objects, bytes int64) {
	t.Helper()
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	// A profile is published by the next completed GC cycle, so one
	// before and one after bracket exactly f's allocations.
	runtime.GC()
	o0, b0 := profiled(t)
	measured(f)
	runtime.GC()
	o1, b1 := profiled(t)
	return o1 - o0, b1 - b0
}

// profiled sums the published allocation profile over the records whose
// stack includes measured.
func profiled(t *testing.T) (objects, bytes int64) {
	t.Helper()
	var recs []runtime.MemProfileRecord
	n, ok := runtime.MemProfile(nil, true)
	for !ok {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
	}
	for _, r := range recs[:n] {
		frames := runtime.CallersFrames(r.Stack())
		for {
			fr, more := frames.Next()
			if fr.Function == measuredName {
				objects += r.AllocObjects
				bytes += r.AllocBytes
				break
			}
			if !more {
				break
			}
		}
	}
	return objects, bytes
}

// stepLoop is the hot loop of the step-loop pins: a 5-instruction
// arithmetic loop with an iteration bound far beyond any budget here,
// so every run is cut off by its budget, never by the program.
func stepLoop(t *testing.T) *mem.Image {
	t.Helper()
	img, err := asm.Assemble(`
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
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// warmup is how many instructions a step loop runs before its pin is
// measured: enough to fault in the predecode, superblock and cluster
// caches, which fill lazily.
const warmup = 1 << 16

// stepper runs a machine model's step loop for n more instructions.
type stepper func(n uint64) error

func issStepper(img *mem.Image) (stepper, error) {
	m := mem.New()
	entry, err := img.Load(m)
	if err != nil {
		return nil, err
	}
	cpu := iss.New(m, entry)
	return func(n uint64) error {
		if got := cpu.Run(n); got != n || cpu.Err != nil {
			return fmt.Errorf("retired %d of %d instructions: %v", got, n, cpu.Err)
		}
		return nil
	}, nil
}

// machine is what the pins need of a timing machine: a run that pauses
// at a total retired count.
type machine interface {
	RunUntil(ctx context.Context, limit uint64) (bool, error)
	Retired() uint64
}

func timedStepper(m machine, err error) (stepper, error) {
	return func(n uint64) error {
		paused, err := m.RunUntil(context.Background(), m.Retired()+n)
		if err == nil && !paused {
			err = errors.New("step loop halted before its pause")
		}
		return err
	}, err
}

// TestStepLoopsAllocationFree is the observability layer's
// zero-overhead acceptance check: with no observer attached (the
// default), the steady-state step loops of all three machine models
// must not allocate. A failure here means something crept into the hot
// path — most likely an emit or a capture that should have been behind
// the hoisted nil-observer guard.
func TestStepLoopsAllocationFree(t *testing.T) {
	img := stepLoop(t)
	for _, c := range []struct {
		name  string
		steps uint64
		build func() (stepper, error)
	}{
		{"iss/step", 1 << 20, func() (stepper, error) { return issStepper(img) }},
		{"diag/step", 1 << 18, func() (stepper, error) { return timedStepper(idiag.NewMachine(idiag.F4C16(), img)) }},
		{"ooo/step", 1 << 18, func() (stepper, error) { return timedStepper(ooo.NewMachine(ooo.Baseline(), img)) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			step, err := c.build()
			if err == nil {
				err = step(warmup)
			}
			if err != nil {
				t.Fatal(err)
			}
			objects, bytes := allocs(t, func() { err = step(c.steps) })
			if err != nil {
				t.Fatal(err)
			}
			if objects != 0 {
				t.Errorf("%s: %d allocations (%d B) over %d steps, want 0", c.name, objects, bytes, c.steps)
			}
		})
	}
}

// TestE2EWarmedAllocationsPinned reconciles the step-loop check above
// with a whole kernel run, which allocates exactly one object of 4096
// B. That allocation is not simulator overhead: each run starts from a
// fresh sparse mem.Memory, and the kernel's first store to its output
// region first-touch-allocates one 4 KiB page (the cpu.Run(1) warm-up
// faults in the predecode and superblock caches, but cannot know which
// data pages the program will write). It is the simulated program's
// own footprint, irreducible without kernel-specific pre-touching — so
// it is pinned here at exactly one page per run rather than hidden. If
// this test starts failing with more, a real allocation crept into the
// hot loop; if with fewer, the memory model's paging changed and the
// pin should move on purpose.
func TestE2EWarmedAllocationsPinned(t *testing.T) {
	w, ok := workloads.ByName("hotspot")
	if !ok {
		t.Fatal("workload hotspot missing")
	}
	img, err := w.Build(workloads.Params{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	const runs = 20
	cpus := make([]*iss.CPU, runs)
	for i := range cpus {
		m := mem.New()
		entry, err := img.Load(m)
		if err != nil {
			t.Fatal(err)
		}
		cpu := iss.New(m, entry)
		// Without the boot convention the partitioned kernel divides by
		// a zero thread count and exits after a handful of instructions.
		cpu.Boot(0, 1)
		cpu.Run(1) // fault in the lazy predecode/superblock caches
		cpus[i] = cpu
	}
	objects, bytes := allocs(t, func() {
		for _, cpu := range cpus {
			cpu.Run(1 << 40)
		}
	})
	for _, cpu := range cpus {
		if cpu.Err != nil || !cpu.Halted {
			t.Fatalf("hotspot did not halt cleanly: halted=%v err=%v", cpu.Halted, cpu.Err)
		}
	}
	if objects != runs {
		t.Errorf("%d warmed hotspot runs: %d allocations, want exactly %d (one first-touch output page each)", runs, objects, runs)
	}
	if bytes != runs*mem.PageSize {
		t.Errorf("%d warmed hotspot runs: %d B, want %d (one page each)", runs, bytes, runs*mem.PageSize)
	}
}

// observedLoop is a loop of iters iterations in the shape of perfbench's
// server miss program: four instructions per iteration and one store.
func observedLoop(t *testing.T, iters int) *diag.Program {
	t.Helper()
	p, err := diag.Assemble(fmt.Sprintf(`
	.data
out:
	.word 0
	.text
	li   t0, 0
	li   t1, %d
	li   t3, 0
loop:
	addi t2, t0, 3
	xor  t3, t3, t2
	addi t0, t0, 1
	blt  t0, t1, loop
	la   t4, out
	sw   t3, 0(t4)
	ebreak
`, iters))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestObservedRunAllocationsFlat pins the cost of watching a run: a
// whole run under WithObserver(NewMetrics(0)) on F4C2 and on the
// out-of-order baseline must allocate about as much at 4N loop
// iterations as at N. The registry resolves each event kind's metrics
// on its first event, so the only growth left is the occupancy
// timeseries, whose slice grows geometrically: a few allocations, not
// one per event (a per-event allocation would add over 60000 here).
func TestObservedRunAllocationsFlat(t *testing.T) {
	const n = 5000
	small, large := observedLoop(t, n), observedLoop(t, 4*n)
	for _, c := range []struct {
		name   string
		target func() diag.Target
	}{
		{"F4C2", func() diag.Target { return diag.DiAG(diag.F4C2()) }},
		{"ooo", func() diag.Target { return diag.OoO(diag.Baseline()) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			run := func(p *diag.Program) (objects, samples int64) {
				met := diag.NewMetrics(0)
				var err error
				objects, _ = allocs(t, func() {
					_, err = c.target().Run(p, diag.WithObserver(met))
				})
				if err != nil {
					t.Fatal(err)
				}
				if met.Counter("ev/retire")+met.Counter("ev/commit") == 0 {
					t.Fatal("observer saw no retires")
				}
				return objects, int64(len(met.Series()))
			}
			run(small) // fault in anything allocated once per process
			o1, s1 := run(small)
			o4, s4 := run(large)
			t.Logf("%s: %d allocations (%d samples) at %d iterations, %d (%d samples) at %d", c.name, o1, s1, n, o4, s4, 4*n)
			const growth = 16 // append growth of the timeseries from s1 to s4 rows
			if o4-o1 > growth {
				t.Errorf("%s: %d allocations at %d iterations vs %d at %d: more than %d apart, so something allocates per event",
					c.name, o4, 4*n, o1, n, growth)
			}
		})
	}
}

// TestMachineBuildAllocationsPinned pins what building a machine costs
// the host. A fresh machine is built for every figure cell, fault
// trial, difftest program, explorer evaluation and server miss, and
// most runs touch a sliver of their caches, so the caches' ways and the
// predecode table are allocated on first touch: a build must allocate
// under 128 KiB with the default 4 MiB L2 (a build that allocated every
// way up front cost ~1.45 MB), and a 64 MiB L2 may add under 64 KiB
// (its page table, not its ~17 MB of ways).
func TestMachineBuildAllocationsPinned(t *testing.T) {
	img := stepLoop(t)
	const (
		budget   = 128 << 10
		l2Growth = 64 << 10
	)
	for _, c := range []struct {
		name  string
		build func(l2Size int) error
	}{
		{"F4C2", func(l2Size int) error {
			cfg := idiag.F4C2()
			cfg.L2Size = l2Size
			_, err := idiag.NewMachine(cfg, img)
			return err
		}},
		{"F4C16", func(l2Size int) error {
			cfg := idiag.F4C16()
			cfg.L2Size = l2Size
			_, err := idiag.NewMachine(cfg, img)
			return err
		}},
		{"ooo", func(l2Size int) error {
			cfg := ooo.Baseline()
			cfg.L2Size = l2Size
			_, err := ooo.NewMachine(cfg, img)
			return err
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			build := func(l2Size int) int64 {
				var err error
				_, bytes := allocs(t, func() { err = c.build(l2Size) })
				if err != nil {
					t.Fatal(err)
				}
				return bytes
			}
			b4, b64 := build(4<<20), build(64<<20)
			t.Logf("%s: build allocates %d B with a 4 MiB L2, %d B with a 64 MiB L2", c.name, b4, b64)
			if b4 >= budget {
				t.Errorf("%s: build with a 4 MiB L2 allocates %d B, want under %d", c.name, b4, budget)
			}
			if b64-b4 >= l2Growth {
				t.Errorf("%s: a 64 MiB L2 adds %d B to a build, want under %d", c.name, b64-b4, l2Growth)
			}
		})
	}
}
