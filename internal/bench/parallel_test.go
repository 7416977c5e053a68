package bench

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"diag/internal/diagerr"
	"diag/internal/exp"
)

// TestParallelMatchesSerial: a figure regenerated on 4 workers must be
// byte-identical to the one-worker regeneration — the engine's ordered
// results make parallelism invisible in the output. Run under -race
// this also exercises the machine models for data races across
// concurrent simulations.
func TestParallelMatchesSerial(t *testing.T) {
	serial, err := NewRunner(context.Background(), Options{Workers: 1}).Fig9a(1)
	if err != nil {
		t.Fatal(err)
	}
	var done int32
	par, err := NewRunner(context.Background(), Options{
		Workers:    4,
		OnProgress: func(exp.Progress) { atomic.AddInt32(&done, 1) },
	}).Fig9a(1)
	if err != nil {
		t.Fatal(err)
	}
	want, got := serial.Table().String(), par.Table().String()
	if want != got {
		t.Errorf("parallel table differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", want, got)
	}
	if want, gotCSV := serial.CSV(), par.CSV(); want != gotCSV {
		t.Error("parallel CSV differs from serial")
	}
	// 14 Rodinia workloads x (1 baseline + 3 DiAG configs).
	if done != 14*4 {
		t.Errorf("progress reported %d simulations, want %d", done, 14*4)
	}
}

// TestSweepCancellation: cancelling the runner's context mid-figure
// aborts promptly with a context error instead of simulating the
// remaining jobs.
func TestSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var cancelled int32
	r := NewRunner(ctx, Options{
		Workers: 2,
		OnProgress: func(p exp.Progress) {
			// Cancel as soon as the first simulation completes.
			if atomic.CompareAndSwapInt32(&cancelled, 0, 1) {
				cancel()
			}
		},
	})
	start := time.Now()
	_, err := r.Fig9a(1)
	if err == nil {
		t.Fatal("cancelled figure regeneration should fail")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	// A full serial Fig9a takes ~1s; cancellation after one simulation
	// must return well before that.
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("cancellation took %v", elapsed)
	}
	cancel()
}

// TestPerSimulationTimeout: an absurdly small per-simulation budget
// fails the figure with the timeout taxonomy error.
func TestPerSimulationTimeout(t *testing.T) {
	r := NewRunner(context.Background(), Options{Workers: 2, Timeout: time.Nanosecond})
	_, err := r.Fig11(1)
	if err == nil {
		t.Fatal("nanosecond timeout should fail the figure")
	}
	if !errors.Is(err, diagerr.ErrTimeout) {
		t.Fatalf("error = %v, want ErrTimeout", err)
	}
}

// TestRunnerNilContext: NewRunner(nil, ...) behaves like Background.
func TestRunnerNilContext(t *testing.T) {
	fig, err := NewRunner(nil, Options{Workers: 2}).Fig11(1)
	if err != nil || len(fig.Entries) != len(Fig11Benchmarks) {
		t.Fatalf("nil-context runner: %v (%d entries)", err, len(fig.Entries))
	}
}
