package fault

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"diag/internal/asm"
	"diag/internal/diag"
	"diag/internal/diagerr"
	"diag/internal/exp"
	"diag/internal/iss"
	"diag/internal/mem"
	"diag/internal/ooo"
	"diag/internal/snap"
)

const (
	sumIn  = 1048576 // 0x100000
	sumOut = 2097152 // 0x200000
	sumN   = 64
)

// sumImage builds the test kernel: sum 64 input words into one output
// word. Registers: x5 = i, x6 = n, x7 = input pointer, x28 = acc,
// x31 = output base; x27 is deliberately never touched (masked-fault
// target).
func sumImage(t *testing.T) *mem.Image {
	t.Helper()
	img, err := asm.Assemble(fmt.Sprintf(`
	li x5, 0
	li x6, %d
	li x7, %d
	li x28, 0
loop:
	lw x30, 0(x7)
	add x28, x28, x30
	addi x7, x7, 4
	addi x5, x5, 1
	blt x5, x6, loop
	li x31, %d
	sw x28, 0(x31)
	ebreak
`, sumN, sumIn, sumOut))
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	data := make([]byte, 4*sumN)
	for i := 0; i < sumN; i++ {
		binary.LittleEndian.PutUint32(data[4*i:], uint32(3*i+7))
	}
	img.Segments = append(img.Segments, mem.Segment{Addr: sumIn, Data: data})
	return img
}

func sumCampaign(img *mem.Image) *Campaign {
	cfg := diag.F4C2()
	return &Campaign{Image: img, DiAG: &cfg, Seed: 42}
}

// TestOutcomeClasses pins one fault per outcome class and checks the
// classification against the golden model.
func TestOutcomeClasses(t *testing.T) {
	img := sumImage(t)
	c := sumCampaign(img)
	golden, _, err := goldenRun(img, 1_000_000)
	if err != nil {
		t.Fatalf("golden: %v", err)
	}
	dataAddr, dataLen := c.dataRegion()
	base := c.forkRunner(nil, nil, dataAddr, dataLen, 0, 0, nil)(context.Background())
	if base.err != nil {
		t.Fatalf("unfaulted run: %v", base.err)
	}
	if base.digest != golden.digest {
		t.Fatal("unfaulted machine diverges from golden model")
	}
	mid := base.cycles / 2
	maxInst := uint64(20_000)
	maxCycles := base.cycles*8 + 100_000

	cases := []struct {
		name string
		f    Fault
		want Outcome
	}{
		// x27 is never read or written by the program: dead state.
		{"masked", Fault{Cycle: mid, Class: SiteLane, Index: 26, Bit: 7, StuckAt: -1}, Masked},
		// x28 is the accumulator; a mid-loop flip lands in the output.
		{"sdc", Fault{Cycle: mid, Class: SiteLane, Index: 27, Bit: 3, StuckAt: -1}, SDC},
		// A PC bit-1 flip misaligns the PC inside text: precise trap.
		{"detected", Fault{Cycle: mid, Class: SitePC, Index: 0, Bit: 1, StuckAt: -1}, Detected},
		// A PC bit-30 flip escapes the text image: wild execution.
		{"crash", Fault{Cycle: mid, Class: SitePC, Index: 0, Bit: 30, StuckAt: -1}, Crash},
		// x6 is the loop bound; sticking a high bit on makes the loop
		// run past the instruction budget.
		{"hang", Fault{Cycle: mid, Class: SiteLane, Index: 5, Bit: 29, StuckAt: 1}, Hang},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := c.forkRunner(nil, []Fault{tc.f}, dataAddr, dataLen, maxInst, maxCycles, nil)(context.Background())
			got, msg := classify(res, golden)
			if got != tc.want {
				t.Fatalf("fault %v classified %v (err %q), want %v", tc.f, got, msg, tc.want)
			}
			if !res.injected {
				t.Fatalf("fault %v never injected", tc.f)
			}
		})
	}
}

// TestEnableFaultRemapsAndCompletes: fusing off a cluster mid-run on a
// machine with spare clusters must remap and still produce the golden
// output.
func TestEnableFaultRemapsAndCompletes(t *testing.T) {
	img := sumImage(t)
	cfg := diag.F4C16()
	c := &Campaign{Image: img, DiAG: &cfg, Seed: 1}
	golden, _, err := goldenRun(img, 1_000_000)
	if err != nil {
		t.Fatalf("golden: %v", err)
	}
	dataAddr, dataLen := c.dataRegion()
	f := Fault{Cycle: 3, Class: SiteEnable, Index: 0, StuckAt: -1}
	res := c.forkRunner(nil, []Fault{f}, dataAddr, dataLen, 0, 0, nil)(context.Background())
	out, msg := classify(res, golden)
	if out != Masked {
		t.Fatalf("enable fault classified %v (err %q), want masked", out, msg)
	}
}

// TestCampaignDeterministic: a fixed-seed campaign is byte-identical
// across runs and across worker counts (the -parallel acceptance bar).
func TestCampaignDeterministic(t *testing.T) {
	img := sumImage(t)
	run := func(workers int) *Report {
		c := sumCampaign(img)
		c.Trials = 100
		c.Workers = workers
		rep, err := c.Run(context.Background())
		if err != nil {
			t.Fatalf("campaign (workers=%d): %v", workers, err)
		}
		return rep
	}
	serial := run(1)
	parallel := run(8)
	again := run(8)
	if !reflect.DeepEqual(serial.Trials, parallel.Trials) {
		t.Fatal("trial list differs between workers=1 and workers=8")
	}
	if a, b := serial.Table(), parallel.Table(); a != b {
		t.Fatalf("table differs between workers=1 and workers=8:\n%s\n--\n%s", a, b)
	}
	if a, b := parallel.Table(), again.Table(); a != b {
		t.Fatal("table differs between identical runs")
	}
	// The campaign must actually exercise the taxonomy: every pinned
	// class above exists, and a random 100-trial campaign should at
	// minimum mask some faults and corrupt others.
	counts := serial.Counts()
	var total [numOutcomes]int
	for c := Class(0); c < numClasses; c++ {
		for o := Outcome(0); o < numOutcomes; o++ {
			total[o] += counts[c][o]
		}
	}
	if total[Masked] == 0 {
		t.Error("campaign produced no masked trials")
	}
	if total[Masked] == len(serial.Trials) {
		t.Error("campaign produced only masked trials")
	}
}

// TestCampaignOoO runs a small campaign on the out-of-order baseline.
func TestCampaignOoO(t *testing.T) {
	img := sumImage(t)
	cfg := ooo.Baseline()
	c := &Campaign{Image: img, OoO: &cfg, Seed: 7, Trials: 40, Workers: 4}
	rep, err := c.Run(context.Background())
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	if len(rep.Trials) != 40 {
		t.Fatalf("got %d trials, want 40", len(rep.Trials))
	}
	if !strings.Contains(rep.Table(), "TOTAL") {
		t.Fatal("table missing TOTAL row")
	}
}

// TestCampaignRejectsMultiThreaded: fault campaigns perturb one hart.
func TestCampaignRejectsMultiThreaded(t *testing.T) {
	img := sumImage(t)
	cfg := diag.MultiRing(diag.F4C16(), 4, 4)
	c := &Campaign{Image: img, DiAG: &cfg}
	if _, err := c.Run(context.Background()); err == nil {
		t.Fatal("multi-ring campaign must be rejected")
	}
}

// wideLoopImage builds a loop whose body spans ~13 I-lines, so it fits
// the healthy 16-cluster window but thrashes a degraded one.
func wideLoopImage(t *testing.T) *mem.Image {
	t.Helper()
	var b strings.Builder
	b.WriteString("\tli x5, 0\n\tli x6, 40\n\tli x28, 0\n")
	b.WriteString("loop:\n")
	for i := 0; i < 200; i++ {
		b.WriteString("\taddi x28, x28, 1\n")
	}
	b.WriteString("\taddi x5, x5, 1\n\tblt x5, x6, loop\n")
	b.WriteString("\tli x31, 2097152\n\tsw x28, 0(x31)\n\tebreak\n")
	img, err := asm.Assemble(b.String())
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return img
}

// TestDegradation: DiAG with k clusters fused off completes correctly
// (checked against the golden digest inside Degradation) and slows
// down once the loop no longer fits the surviving window.
func TestDegradation(t *testing.T) {
	img := wideLoopImage(t)
	points, err := Degradation(context.Background(), diag.F4C16(), img, 8, 4)
	if err != nil {
		t.Fatalf("degradation: %v", err)
	}
	if len(points) != 9 {
		t.Fatalf("got %d points, want 9", len(points))
	}
	if points[0].Slowdown != 1.0 {
		t.Fatalf("healthy slowdown %.3f, want 1.0", points[0].Slowdown)
	}
	last := points[len(points)-1]
	if last.Enabled != 8 {
		t.Fatalf("last point has %d enabled clusters, want 8", last.Enabled)
	}
	if last.Cycles <= points[0].Cycles {
		t.Fatalf("8-cluster run (%d cycles) not slower than 16-cluster run (%d cycles)",
			last.Cycles, points[0].Cycles)
	}
	if !strings.Contains(DegradationTable("F4C16", points), "slowdown") {
		t.Fatal("degradation table missing slowdown column")
	}
}

// TestWatchdogStallsBothMachines: a livelocked program returns
// ErrStalled on both timing models instead of burning the cycle budget.
func TestWatchdogStallsBothMachines(t *testing.T) {
	img, err := asm.Assemble("loop:\n\tj loop\n")
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	dm, err := diag.NewMachine(diag.F4C2(), img)
	if err != nil {
		t.Fatal(err)
	}
	if err := dm.Run(); !errors.Is(err, diagerr.ErrStalled) {
		t.Fatalf("diag: got %v, want ErrStalled", err)
	}
	om, err := ooo.NewMachine(ooo.Baseline(), img)
	if err != nil {
		t.Fatal(err)
	}
	if err := om.Run(); !errors.Is(err, diagerr.ErrStalled) {
		t.Fatalf("ooo: got %v, want ErrStalled", err)
	}
}

// TestSelfCorrectingFaultMasked: two transient flips of the same bit
// in the same register, on consecutive cycles with no intervening read,
// cancel out — the run must classify as masked, not SDC. This pins the
// classifier on final-state equivalence rather than "was state ever
// corrupted".
func TestSelfCorrectingFaultMasked(t *testing.T) {
	img := sumImage(t)
	c := sumCampaign(img)
	golden, _, err := goldenRun(img, 1_000_000)
	if err != nil {
		t.Fatalf("golden: %v", err)
	}
	dataAddr, dataLen := c.dataRegion()
	base := c.forkRunner(nil, nil, dataAddr, dataLen, 0, 0, nil)(context.Background())
	if base.err != nil {
		t.Fatalf("unfaulted run: %v", base.err)
	}
	mid := base.cycles / 2
	// x6 (Index 5) is the loop bound: a single bit-29 flip is the pinned
	// hang case in TestOutcomeClasses, so cancellation is load-bearing —
	// if the second flip failed to undo the first, this run could not
	// come back masked.
	faults := []Fault{
		{Cycle: mid, Class: SiteLane, Index: 5, Bit: 29, StuckAt: -1},
		{Cycle: mid + 1, Class: SiteLane, Index: 5, Bit: 29, StuckAt: -1},
	}
	res := c.forkRunner(nil, faults, dataAddr, dataLen, uint64(20_000), base.cycles*8+100_000, nil)(context.Background())
	if !res.injected {
		t.Fatal("faults never injected")
	}
	got, msg := classify(res, golden)
	if got == SDC {
		t.Fatalf("self-correcting fault classified SDC — classifier is keying on transient corruption")
	}
	if got != Masked {
		t.Fatalf("self-correcting fault classified %v (err %q), want masked", got, msg)
	}
}

// TestStalledHangFiresBeforeCycleBudget: a livelocked program must be
// stopped by the retirement watchdog (ErrStalled) orders of magnitude
// before the cycle budget, and the campaign classifier must call it a
// hang. A watchdog that merely waited for MaxCycles would make every
// hang trial cost the full budget.
func TestStalledHangFiresBeforeCycleBudget(t *testing.T) {
	img, err := asm.Assemble("loop:\n\tj loop\n")
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	const budget = 10_000_000
	cfg := diag.F4C2()
	c := &Campaign{Image: img, DiAG: &cfg}
	res := c.forkRunner(nil, nil, 0, 0, 0, budget, nil)(context.Background())
	if !errors.Is(res.err, diagerr.ErrStalled) {
		t.Fatalf("run error = %v, want ErrStalled", res.err)
	}
	if errors.Is(res.err, diagerr.ErrMaxCycles) {
		t.Fatal("stall must be proven by the watchdog, not by cycle-budget exhaustion")
	}
	if res.cycles >= budget/100 {
		t.Fatalf("watchdog fired after %d cycles; want well under the %d budget", res.cycles, budget)
	}
	out, msg := classify(res, goldenRef{textAddr: img.TextAddr, textEnd: img.TextEnd()})
	if out != Hang {
		t.Fatalf("stalled run classified %v (err %q), want hang", out, msg)
	}
}

// TestParseClasses covers names, aliases, and rejection.
func TestParseClasses(t *testing.T) {
	got, err := ParseClasses("reg, mem,ibuf,cache")
	if err != nil {
		t.Fatal(err)
	}
	want := []Class{SiteLane, SiteMem, SiteIBuf, SiteMem}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	if all, err := ParseClasses("all"); err != nil || len(all) != int(numClasses) {
		t.Fatalf("all: %v, %v", all, err)
	}
	if _, err := ParseClasses("bogus"); err == nil {
		t.Fatal("bogus class accepted")
	}
	if _, err := ParseClasses(""); err == nil {
		t.Fatal("empty list accepted")
	}
}

// TestInjectorStuckAt: a stuck-at-0 fault holds its bit down across
// polls; a transient flip fires once.
func TestInjectorStuckAt(t *testing.T) {
	img := sumImage(t)
	m := mem.New()
	entry, err := img.Load(m)
	if err != nil {
		t.Fatal(err)
	}
	cpu := iss.New(m, entry)
	inj := NewInjector(Target{CPU: cpu}, []Fault{
		{Cycle: 0, Class: SiteLane, Index: 4, Bit: 0, StuckAt: 0}, // x5 bit 0 stuck low
	})
	cpu.X[5] = 0xFF
	inj.Poll(0)
	if cpu.X[5] != 0xFE {
		t.Fatalf("x5 = %#x after stuck-at-0, want 0xFE", cpu.X[5])
	}
	cpu.X[5] = 0x01
	inj.Poll(1)
	if cpu.X[5] != 0 {
		t.Fatalf("x5 = %#x on later poll, want bit held at 0", cpu.X[5])
	}
	if inj.Injected != 1 {
		t.Fatalf("Injected = %d, want 1", inj.Injected)
	}
}

// TestWarmupForkByteIdentical is the correctness gate for warmup
// forking: a campaign with a warmup checkpoint must produce the exact
// report — trial by trial, and rendered table byte for byte — of the
// same campaign run entirely from reset, at any worker count. Warmup
// may only change how fast the campaign finishes.
func TestWarmupForkByteIdentical(t *testing.T) {
	img := sumImage(t)
	run := func(warmup uint64, workers int) *Report {
		t.Helper()
		c := sumCampaign(img)
		c.Trials = 40
		c.Warmup = warmup
		c.Workers = workers
		rep, err := c.Run(context.Background())
		if err != nil {
			t.Fatalf("campaign (warmup %d, workers %d): %v", warmup, workers, err)
		}
		return rep
	}
	want := run(0, 1)
	for _, tc := range []struct {
		warmup  uint64
		workers int
	}{{100, 1}, {100, 8}, {200, 4}} {
		got := run(tc.warmup, tc.workers)
		if !reflect.DeepEqual(got.Trials, want.Trials) {
			for i := range want.Trials {
				if !reflect.DeepEqual(got.Trials[i], want.Trials[i]) {
					t.Fatalf("warmup %d workers %d: trial %d = %+v, want %+v",
						tc.warmup, tc.workers, i, got.Trials[i], want.Trials[i])
				}
			}
			t.Fatalf("warmup %d workers %d: trials diverge", tc.warmup, tc.workers)
		}
		if got.Table() != want.Table() {
			t.Fatalf("warmup %d workers %d: table diverges:\n%s\nwant:\n%s",
				tc.warmup, tc.workers, got.Table(), want.Table())
		}
	}
}

// TestWarmupForkByteIdenticalOoO is the same gate on the out-of-order
// baseline's fork path.
func TestWarmupForkByteIdenticalOoO(t *testing.T) {
	img := sumImage(t)
	run := func(warmup uint64) *Report {
		t.Helper()
		cfg := ooo.Baseline()
		c := &Campaign{Image: img, OoO: &cfg, Seed: 42, Trials: 25, Warmup: warmup, Workers: 4}
		rep, err := c.Run(context.Background())
		if err != nil {
			t.Fatalf("campaign (warmup %d): %v", warmup, err)
		}
		return rep
	}
	want, got := run(0), run(100)
	if !reflect.DeepEqual(got.Trials, want.Trials) {
		t.Fatal("OoO warmup campaign diverges from from-reset campaign")
	}
	if got.Table() != want.Table() {
		t.Fatalf("OoO table diverges:\n%s\nwant:\n%s", got.Table(), want.Table())
	}
}

// TestWarmupForkActuallyForks proves the fast path is exercised: the
// sum kernel's checkpoint exists, and a fault scheduled past the
// threshold runs through the snapshot-restore path to the same
// classification as a from-reset run.
func TestWarmupForkActuallyForks(t *testing.T) {
	img := sumImage(t)
	c := sumCampaign(img)
	c.Warmup = 100
	ctx := context.Background()
	golden, _, err := goldenRun(img, 1_000_000)
	if err != nil {
		t.Fatalf("golden: %v", err)
	}
	dataAddr, dataLen := c.dataRegion()
	base := c.forkRunner(nil, nil, dataAddr, dataLen, 0, 0, nil)(ctx)
	if base.err != nil {
		t.Fatalf("unfaulted run: %v", base.err)
	}
	maxInst := uint64(20_000)
	maxCycles := base.cycles*8 + 100_000
	fp, err := c.checkpoint(ctx, maxInst, maxCycles)
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if fp == nil {
		t.Fatal("warmup 100 did not pause the sum kernel — checkpoint is nil")
	}
	late := Fault{Cycle: fp.threshold + (base.cycles-fp.threshold)/2, Class: SiteLane, Index: 27, Bit: 3, StuckAt: -1}
	faults := []Fault{late}
	if !fp.eligible(faults) {
		t.Fatalf("late fault at cycle %d not eligible past threshold %d", late.Cycle, fp.threshold)
	}
	forked := c.forkRunner(fp, faults, dataAddr, dataLen, maxInst, maxCycles, nil)(ctx)
	straight := c.forkRunner(nil, faults, dataAddr, dataLen, maxInst, maxCycles, nil)(ctx)
	if forked.digest != straight.digest || forked.cycles != straight.cycles || forked.injected != straight.injected {
		t.Fatalf("forked run (digest %#x, cycles %d, injected %v) != straight run (digest %#x, cycles %d, injected %v)",
			forked.digest, forked.cycles, forked.injected, straight.digest, straight.cycles, straight.injected)
	}
	outF, _ := classify(forked, golden)
	outS, _ := classify(straight, golden)
	if outF != outS {
		t.Fatalf("forked classifies %v, straight %v", outF, outS)
	}
}

// TestWarmupForkLeavesStateIntact runs every trial of a Workers: 4
// campaign from one shared fork state and checks that the state still
// encodes to the same bytes afterwards. Trials restore from the
// in-memory snapshot without copying it first, so a restore that
// aliased one of its slices would let a trial's execution write into
// the checkpoint every other trial forks from.
func TestWarmupForkLeavesStateIntact(t *testing.T) {
	img := sumImage(t)
	dcfg, ocfg := diag.F4C2(), ooo.Baseline()
	for _, c := range []*Campaign{
		{Image: img, DiAG: &dcfg, Seed: 42, Warmup: 100},
		{Image: img, OoO: &ocfg, Seed: 42, Warmup: 100},
	} {
		name := c.machineName()
		ctx := context.Background()
		dataAddr, dataLen := c.dataRegion()
		base := c.forkRunner(nil, nil, dataAddr, dataLen, 0, 0, nil)(ctx)
		if base.err != nil {
			t.Fatalf("%s: unfaulted run: %v", name, base.err)
		}
		maxInst, maxCycles := uint64(20_000), base.cycles*8+100_000
		fp, err := c.checkpoint(ctx, maxInst, maxCycles)
		if err != nil || fp == nil {
			t.Fatalf("%s: checkpoint = %v, %v; want a fork point", name, fp, err)
		}
		before, err := snap.Encode(fp.snap)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}

		rng := rand.New(rand.NewSource(7))
		window := base.cycles - fp.threshold
		jobs := make([]exp.Job, 24)
		for i := range jobs {
			f := Random(rng, DefaultSites(c.DiAG != nil), window)
			f.Cycle += fp.threshold + 1
			run := c.forkRunner(fp, []Fault{f}, dataAddr, dataLen, maxInst, maxCycles, nil)
			jobs[i] = exp.Job{Name: fmt.Sprintf("trial-%d", i), Run: func(ctx context.Context) (any, error) {
				return run(ctx), nil
			}}
		}
		if _, err := exp.Run(ctx, jobs, exp.Options{Workers: 4}); err != nil {
			t.Fatalf("%s: trials: %v", name, err)
		}

		after, err := snap.Encode(fp.snap)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", name, err)
		}
		if !bytes.Equal(before, after) {
			t.Errorf("%s: fork state changed while trials ran from it (%d bytes before, %d after)", name, len(before), len(after))
		}
	}
}
