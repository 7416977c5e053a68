package diag_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"diag"
)

// spin never halts and never changes state: the retirement watchdog
// proves the livelock and stops it with ErrStalled.
const spin = `
loop:
	j loop
`

// spinBusy never halts but makes architectural progress every
// iteration (the counter advances), so the watchdog cannot prove a
// livelock — only budgets and cancellation can stop it.
const spinBusy = `
loop:
	addi t0, t0, 1
	j loop
`

// trap hits an unsupported system call: the bad-program path.
const trap = `
	li a7, 93
	ecall
`

func mustAssemble(t *testing.T, src string) *diag.Program {
	t.Helper()
	img, err := diag.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestWithMaxCycles(t *testing.T) {
	img := mustAssemble(t, spinBusy)
	_, err := diag.DiAG(diag.F4C2()).Run(img, diag.WithMaxCycles(1000))
	if !errors.Is(err, diag.ErrMaxCycles) {
		t.Errorf("DiAG Run: err = %v, want ErrMaxCycles", err)
	}
	_, err = diag.OoO(diag.Baseline()).Run(img, diag.WithMaxCycles(1000))
	if !errors.Is(err, diag.ErrMaxCycles) {
		t.Errorf("OoO Run: err = %v, want ErrMaxCycles", err)
	}
}

func TestWithMaxInstructions(t *testing.T) {
	img := mustAssemble(t, spinBusy)
	_, err := diag.DiAG(diag.F4C2()).Run(img, diag.WithMaxInstructions(5000))
	if !errors.Is(err, diag.ErrMaxInstructions) {
		t.Errorf("DiAG Run: err = %v, want ErrMaxInstructions", err)
	}
	if errors.Is(err, diag.ErrMaxCycles) {
		t.Error("instruction-budget error must not match ErrMaxCycles")
	}
	_, err = diag.OoO(diag.Baseline()).Run(img, diag.WithMaxInstructions(5000))
	if !errors.Is(err, diag.ErrMaxInstructions) {
		t.Errorf("OoO Run: err = %v, want ErrMaxInstructions", err)
	}
}

func TestWithTimeout(t *testing.T) {
	img := mustAssemble(t, spinBusy)
	start := time.Now()
	_, err := diag.DiAG(diag.F4C2()).Run(img, diag.WithTimeout(50*time.Millisecond))
	if !errors.Is(err, diag.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	// The same error also matches the standard-library deadline
	// sentinel, so callers using either idiom work.
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("timeout error should also match context.DeadlineExceeded: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("timed-out run returned after %v", elapsed)
	}
}

func TestWithContextCancellation(t *testing.T) {
	img := mustAssemble(t, spin)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the run must abort almost immediately
	_, err := diag.DiAG(diag.F4C2()).Run(img, diag.WithContext(ctx))
	if !errors.Is(err, context.Canceled) {
		t.Errorf("DiAG Run: err = %v, want context.Canceled", err)
	}
	_, err = diag.OoO(diag.Baseline()).Run(img, diag.WithContext(ctx))
	if !errors.Is(err, context.Canceled) {
		t.Errorf("OoO Run: err = %v, want context.Canceled", err)
	}
}

func TestBadProgramTaxonomy(t *testing.T) {
	img := mustAssemble(t, trap)
	if _, err := diag.DiAG(diag.F4C2()).Run(img); !errors.Is(err, diag.ErrBadProgram) {
		t.Errorf("DiAG Run: err = %v, want ErrBadProgram", err)
	}
	if _, err := diag.OoO(diag.Baseline()).Run(img); !errors.Is(err, diag.ErrBadProgram) {
		t.Errorf("OoO Run: err = %v, want ErrBadProgram", err)
	}
	if _, err := diag.ISS().Run(img, diag.WithMaxInstructions(1000)); !errors.Is(err, diag.ErrBadProgram) {
		t.Errorf("ISS Run: err = %v, want ErrBadProgram", err)
	}
}

func TestStalledTaxonomy(t *testing.T) {
	img := mustAssemble(t, spin)
	_, err := diag.DiAG(diag.F4C2()).Run(img)
	if !errors.Is(err, diag.ErrStalled) {
		t.Errorf("DiAG Run: err = %v, want ErrStalled", err)
	}
	if errors.Is(err, diag.ErrMaxCycles) || errors.Is(err, diag.ErrMaxInstructions) {
		t.Error("a proven livelock must not match the budget sentinels")
	}
	_, err = diag.OoO(diag.Baseline()).Run(img)
	if !errors.Is(err, diag.ErrStalled) {
		t.Errorf("OoO Run: err = %v, want ErrStalled", err)
	}
}

// TestISSInstructionBudget: an ISS run that exhausts its budget fails
// with ErrMaxInstructions, so a truncated run is never mistaken for a
// completed one; the partial state is reached with WithRunUntil, which
// pauses instead of failing.
func TestISSInstructionBudget(t *testing.T) {
	img := mustAssemble(t, spin)
	if _, err := diag.ISS().Run(img, diag.WithMaxInstructions(10)); !errors.Is(err, diag.ErrMaxInstructions) {
		t.Fatalf("err = %v, want ErrMaxInstructions", err)
	}
	res, err := diag.ISS().Run(img, diag.WithRunUntil(10))
	if err != nil {
		t.Fatal(err)
	}
	if res.Done || res.CPU.Instret != 10 {
		t.Errorf("partial state: Done = %v, Instret = %d; want false, 10", res.Done, res.CPU.Instret)
	}
	if res.CPU.Halted {
		t.Error("a paused run must not report Halted")
	}
}

func TestWithTrace(t *testing.T) {
	img := mustAssemble(t, tinyLoop)
	var buf bytes.Buffer
	_, err := diag.DiAG(diag.F4C2()).Run(img, diag.WithTrace(&buf), diag.WithTraceDepth(8))
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "blt") || !strings.Contains(out, "mix") {
		t.Errorf("trace output missing instruction tail or mix summary:\n%s", out)
	}
}

// TestWithTraceSharded pins that a traced multi-ring or multicore run
// prints the same trace and stats at any shard count: the recorder is
// shared by every ring/core, so a traced run must take the sequential
// engine (run under -race, a concurrent one would also race).
func TestWithTraceSharded(t *testing.T) {
	w, _ := diag.WorkloadByName("hotspot")
	img, err := w.Build(diag.WorkloadParams{Scale: 1, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, tgt := range []diag.Target{diag.DiAG(diag.MultiRing(diag.F4C2(), 4, 2)), diag.OoO(diag.BaselineMulticore(4))} {
		var out [2]string
		for i, shards := range []int{1, 4} {
			var buf bytes.Buffer
			res, err := tgt.Run(img, diag.WithShards(shards), diag.WithTrace(&buf), diag.WithTraceDepth(8))
			if err != nil {
				t.Fatal(err)
			}
			out[i] = fmt.Sprintf("%s %+v %+v\n%s", res.Machine, res.DiAG, res.Baseline, &buf)
		}
		if out[0] != out[1] {
			t.Errorf("shards 4:\n%s\nwant (shards 1):\n%s", out[1], out[0])
		}
	}
}

func TestSweepOrderingAndTaxonomy(t *testing.T) {
	good := mustAssemble(t, tinyLoop)
	bad := mustAssemble(t, trap)
	jobs := []diag.SweepJob{
		diag.TargetJob("good/F4C2", diag.DiAG(diag.F4C2()), good),
		diag.TargetJob("bad/F4C2", diag.DiAG(diag.F4C2()), bad),
		diag.TargetJob("good/OoO", diag.OoO(diag.Baseline()), good),
	}
	results, err := diag.Sweep(context.Background(), jobs, diag.SweepOptions{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	for i, r := range results {
		if r.Index != i || r.Name != jobs[i].Name {
			t.Errorf("result %d out of order: %+v", i, r)
		}
	}
	if res, ok := results[0].Value.(*diag.Result); !ok || res.Cycles <= 0 || res.DiAG == nil {
		t.Errorf("result 0: value = %#v, err = %v", results[0].Value, results[0].Err)
	}
	if !errors.Is(results[1].Err, diag.ErrBadProgram) {
		t.Errorf("result 1: err = %v, want ErrBadProgram", results[1].Err)
	}
	if res, ok := results[2].Value.(*diag.Result); !ok || res.Cycles <= 0 || res.Baseline == nil {
		t.Errorf("result 2: value = %#v, err = %v", results[2].Value, results[2].Err)
	}
}
