package hostbench

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"diag/internal/asm"
	idiag "diag/internal/diag"
	"diag/internal/isa"
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
		// Single-hart boot convention (tp = hart id, gp = hart count):
		// without it the partitioned kernel divides by a zero thread
		// count and exits after a handful of instructions.
		cpu.X[isa.TP] = 0
		cpu.X[isa.GP] = 1
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
