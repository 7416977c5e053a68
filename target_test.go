package diag_test

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"diag"
	"diag/internal/obsv"
)

// stabilityWorkloads are the kernels the checkpoint/restore stability
// gate runs — a cross-section of the Rodinia and SPEC sets covering
// integer, floating-point, memory-bound, and control-heavy behavior.
var stabilityWorkloads = []string{
	"pathfinder", "nw", "bfs", "hotspot", "kmeans", "srad",
	"btree", "backprop", "lud", "mcf", "xz", "leela",
}

// stabilityParams is the smallest problem shape: one thread, scale 1.
var stabilityParams = diag.WorkloadParams{Scale: 1, Threads: 1}

// workload looks up one named kernel.
func workload(t *testing.T, name string) diag.Workload {
	t.Helper()
	w, ok := diag.WorkloadByName(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	return w
}

// buildWorkload assembles one named kernel at the smallest scale.
func buildWorkload(t *testing.T, name string) *diag.Program {
	t.Helper()
	img, err := workload(t, name).Build(stabilityParams)
	if err != nil {
		t.Fatalf("build %s: %v", name, err)
	}
	return img
}

// checkStabilityAt is the core checkpoint/restore property: running w
// straight must compute the workload's own right answer and be
// indistinguishable — statistics, memory digest, and the complete
// observer event stream — from running half of it, checkpointing,
// serializing the snapshot through the diag-snap/v1 codec, and resuming
// the decoded copy. delta shifts the pause point off the N/2 alignment;
// the superblock-on column uses an odd delta so the pause lands inside
// a decoded superblock.
func checkStabilityAt(t *testing.T, mkTarget func() diag.Target, w diag.Workload, delta uint64) {
	t.Helper()
	img := buildWorkload(t, w.Name)

	straightCol := diag.NewEventCollector(0)
	straight, err := mkTarget().Run(img, diag.WithObserver(straightCol))
	if err != nil {
		t.Fatalf("straight run: %v", err)
	}
	if !straight.Done {
		t.Fatal("straight run not done")
	}
	// A straight run that agrees with its split twin can still be wrong
	// on both: a target that skips the hart boot convention does.
	if err := w.Check(straight.Mem, stabilityParams); err != nil {
		t.Fatalf("straight run: %v", err)
	}

	half := straight.Retired/2 + delta
	if half == 0 || half >= straight.Retired {
		t.Fatal("workload too small to split")
	}
	splitCol := diag.NewEventCollector(0)
	tgt := mkTarget()
	first, err := tgt.Run(img, diag.WithRunUntil(half), diag.WithObserver(splitCol))
	if err != nil {
		t.Fatalf("first half: %v", err)
	}
	if first.Done {
		t.Fatalf("first half already done at %d/%d retired", first.Retired, straight.Retired)
	}
	s, err := tgt.Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	enc, err := s.Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	dec, err := diag.DecodeSnapshot(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	second, err := tgt.Resume(dec, diag.WithObserver(splitCol))
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !second.Done {
		t.Fatal("resumed run not done")
	}

	if second.Cycles != straight.Cycles || second.Retired != straight.Retired {
		t.Fatalf("split run finished at cycles %d retired %d; straight %d/%d",
			second.Cycles, second.Retired, straight.Cycles, straight.Retired)
	}
	if got, want := second.Mem.Digest(), straight.Mem.Digest(); got != want {
		t.Fatalf("memory digest %#x after split run, want %#x", got, want)
	}
	switch {
	case straight.DiAG != nil:
		if !reflect.DeepEqual(*second.DiAG, *straight.DiAG) {
			t.Fatalf("DiAG stats diverge:\nsplit:    %+v\nstraight: %+v", *second.DiAG, *straight.DiAG)
		}
	case straight.Baseline != nil:
		if !reflect.DeepEqual(*second.Baseline, *straight.Baseline) {
			t.Fatalf("baseline stats diverge:\nsplit:    %+v\nstraight: %+v", *second.Baseline, *straight.Baseline)
		}
	case straight.CPU != nil:
		if second.CPU.X != straight.CPU.X || second.CPU.F != straight.CPU.F ||
			second.CPU.PC != straight.CPU.PC || second.CPU.Instret != straight.CPU.Instret {
			t.Fatal("ISS architectural state diverges after split run")
		}
	}
	for k := diag.EventKind(0); k < obsv.NumKinds; k++ {
		if got, want := splitCol.Count(k), straightCol.Count(k); got != want {
			t.Errorf("%s events: %d after split run, want %d", k, got, want)
		}
	}
}

// TestTargetStability runs the stability gate for every machine kind
// across twelve workloads: save at N/2, restore, run the rest — nothing
// observable may change.
func TestTargetStability(t *testing.T) {
	targets := []struct {
		name  string
		mk    func() diag.Target
		delta uint64 // shifts the pause point off the N/2 alignment
	}{
		{"iss", func() diag.Target { return diag.ISS() }, 0},
		// Superblock-on column: the ISS target dispatches whole decoded
		// superblocks, and the odd pause offset makes the pause land
		// inside a block — a mid-block pause must fall back to exact
		// per-instruction retirement and restore losslessly from a cold
		// block cache.
		{"iss-sb", func() diag.Target { return diag.ISS() }, 3},
		{"F4C2", func() diag.Target { return diag.DiAG(diag.F4C2()) }, 0},
		{"ooo", func() diag.Target { return diag.OoO(diag.Baseline()) }, 0},
	}
	for _, tc := range targets {
		for _, wl := range stabilityWorkloads {
			t.Run(tc.name+"/"+wl, func(t *testing.T) {
				t.Parallel()
				checkStabilityAt(t, tc.mk, workload(t, wl), tc.delta)
			})
		}
	}
}

// TestCheckpointBeforeRunFails pins the error contract: a target with
// no completed run has nothing to capture.
func TestCheckpointBeforeRunFails(t *testing.T) {
	for _, tgt := range []diag.Target{diag.ISS(), diag.DiAG(diag.F4C2()), diag.OoO(diag.Baseline())} {
		if _, err := tgt.Checkpoint(); err == nil {
			t.Errorf("%s: Checkpoint before Run succeeded", tgt.Name())
		}
	}
}

// TestResumeKindMismatch: a target only resumes snapshots of its own
// machine kind, and says which kinds were involved.
func TestResumeKindMismatch(t *testing.T) {
	img := buildWorkload(t, "pathfinder")
	tgt := diag.DiAG(diag.F4C2())
	if _, err := tgt.Run(img, diag.WithRunUntil(100)); err != nil {
		t.Fatal(err)
	}
	s, err := tgt.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := diag.ISS().Resume(s); err == nil || !strings.Contains(err.Error(), "diag") {
		t.Errorf("ISS resumed a diag snapshot: err = %v", err)
	}
	if _, err := diag.OoO(diag.Baseline()).Resume(s); err == nil {
		t.Error("OoO resumed a diag snapshot")
	}
	if _, err := tgt.Resume(nil); err == nil {
		t.Error("resumed a nil snapshot")
	}
}

// TestSnapshotSelfDescribing: a decoded snapshot knows its machine and
// can mint the matching target, so resuming needs no out-of-band
// configuration.
func TestSnapshotSelfDescribing(t *testing.T) {
	img := buildWorkload(t, "nw")
	tgt := diag.OoO(diag.Baseline())
	straight, err := diag.OoO(diag.Baseline()).Run(img)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tgt.Run(img, diag.WithRunUntil(straight.Retired/2)); err != nil {
		t.Fatal(err)
	}
	s, err := tgt.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	dec, err := diag.ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Machine() != "ooo" {
		t.Fatalf("Machine() = %q, want ooo", dec.Machine())
	}
	fresh, err := dec.Target()
	if err != nil {
		t.Fatal(err)
	}
	res, err := fresh.Resume(dec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done || res.Cycles != straight.Cycles || res.Mem.Digest() != straight.Mem.Digest() {
		t.Fatalf("self-described resume diverges: %+v vs straight cycles %d", res, straight.Cycles)
	}
}

// TestSnapshotResumeIsRepeatable: Resume must not mutate the snapshot —
// the same value seeds any number of identical resumed runs.
func TestSnapshotResumeIsRepeatable(t *testing.T) {
	img := buildWorkload(t, "pathfinder")
	tgt := diag.DiAG(diag.F4C2())
	if _, err := tgt.Run(img, diag.WithRunUntil(2000)); err != nil {
		t.Fatal(err)
	}
	s, err := tgt.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	r1, err := tgt.Resume(s)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := tgt.Resume(s)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles != r2.Cycles || r1.Mem.Digest() != r2.Mem.Digest() {
		t.Fatal("two resumes of the same snapshot diverge")
	}
}

// TestISSTargetErrors: the ISS target maps onto the same taxonomy as
// the timing machines and refuses fault campaigns.
func TestISSTargetErrors(t *testing.T) {
	img, err := diag.Assemble("loop:\n\taddi t0, t0, 1\n\tj loop\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := diag.ISS().Run(img, diag.WithMaxInstructions(1000)); !errors.Is(err, diag.ErrMaxInstructions) {
		t.Errorf("ISS budget error = %v, want ErrMaxInstructions", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := diag.ISS().Run(img, diag.WithContext(ctx)); !errors.Is(err, context.Canceled) {
		t.Errorf("ISS cancel error = %v, want context.Canceled", err)
	}
	if _, err := diag.FaultCampaign(context.Background(), diag.ISS(), img); err == nil {
		t.Error("fault campaign on the ISS succeeded")
	}
}

// TestTargetJobForksState: the sweep job must not share mutable state
// with the target it was built from.
func TestTargetJobForksState(t *testing.T) {
	img := buildWorkload(t, "nw")
	tgt := diag.DiAG(diag.F4C2())
	job := diag.TargetJob("nw/F4C2", tgt, img)
	if _, err := tgt.Run(img, diag.WithRunUntil(500)); err != nil {
		t.Fatal(err)
	}
	s, err := tgt.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	v, err := job.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	res := v.(*diag.Result)
	if !res.Done {
		t.Fatal("sweep job did not run to completion")
	}
	// The original target's checkpoint is still the paused one.
	if s.Machine() != "diag" {
		t.Fatalf("checkpoint machine = %q", s.Machine())
	}
	if _, err := tgt.Resume(s); err != nil {
		t.Fatalf("original target lost its state to the job: %v", err)
	}
}

// interruptProgram keeps a heartbeat counter in memory until a precise
// interrupt vectors it to the handler at 0x2000, which leaves a marker
// and halts.
const interruptProgram = `
	li   a0, 0
	li   a1, 0x700
loop:
	addi a0, a0, 1
	sw   a0, 0(a1)
	j    loop

	.org 0x2000
handler:
	li   t0, 0xDEAD
	sw   t0, 4(a1)
	ebreak
`

// TestWithInterruptAcrossTargets arms one precise interrupt on every
// machine kind: each must take it at the same instruction boundary and
// finish with the golden ISS's registers, retired count and memory —
// also when the run pauses before the interrupt fires and a snapshot,
// round-tripped through diag-snap/v1, resumes without the option.
func TestWithInterruptAcrossTargets(t *testing.T) {
	img, err := diag.Assemble(interruptProgram)
	if err != nil {
		t.Fatal(err)
	}
	const at, vector = 10_000, 0x2000
	budget := diag.WithMaxInstructions(2 * at) // a missed interrupt fails fast
	golden, err := diag.ISS().Run(img, diag.WithInterrupt(at, vector), budget)
	if err != nil {
		t.Fatal(err)
	}
	if !golden.CPU.Trapped || golden.CPU.EPC == 0 || golden.Mem.LoadWord(0x704) != 0xDEAD {
		t.Fatalf("ISS did not take the interrupt: trapped %v, EPC %#x, marker %#x",
			golden.CPU.Trapped, golden.CPU.EPC, golden.Mem.LoadWord(0x704))
	}
	agree := func(t *testing.T, res *diag.Result) {
		t.Helper()
		if !res.Done {
			t.Fatal("run not done")
		}
		if res.CPU.EPC != golden.CPU.EPC || res.CPU.X != golden.CPU.X || res.Retired != golden.Retired {
			t.Errorf("EPC %#x, retired %d, X %v;\nISS: EPC %#x, retired %d, X %v",
				res.CPU.EPC, res.Retired, res.CPU.X, golden.CPU.EPC, golden.Retired, golden.CPU.X)
		}
		if got, want := res.Mem.Digest(), golden.Mem.Digest(); got != want {
			t.Errorf("memory digest %#x, ISS %#x", got, want)
		}
	}
	for _, mk := range []func() diag.Target{
		diag.ISS,
		func() diag.Target { return diag.DiAG(diag.F4C2()) },
		func() diag.Target { return diag.OoO(diag.Baseline()) },
	} {
		tgt := mk()
		t.Run(tgt.Name(), func(t *testing.T) {
			res, err := tgt.Run(img, diag.WithInterrupt(at, vector), budget)
			if err != nil {
				t.Fatal(err)
			}
			agree(t, res)

			paused, err := tgt.Run(img, diag.WithInterrupt(at, vector), budget, diag.WithRunUntil(at/2))
			if err != nil {
				t.Fatal(err)
			}
			if paused.Done || paused.CPU.Trapped {
				t.Fatalf("pause at %d: done %v, trapped %v", at/2, paused.Done, paused.CPU.Trapped)
			}
			s, err := tgt.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			b, err := s.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if s, err = diag.DecodeSnapshot(b); err != nil {
				t.Fatal(err)
			}
			res, err = mk().Resume(s, budget)
			if err != nil {
				t.Fatal(err)
			}
			agree(t, res)
		})
	}

	// at == 0 leaves interrupts off: the loop never reaches the handler.
	_, err = diag.ISS().Run(img, diag.WithInterrupt(0, vector), diag.WithMaxInstructions(at))
	if !errors.Is(err, diag.ErrMaxInstructions) {
		t.Errorf("WithInterrupt(0, ...) run: err = %v, want ErrMaxInstructions", err)
	}
}
