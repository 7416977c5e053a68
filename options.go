package diag

import (
	"context"
	"io"
	"time"

	"diag/internal/bench"
	"diag/internal/diagerr"
	"diag/internal/exp"
	"diag/internal/iss"
	"diag/internal/obsv"
)

// ---- Error taxonomy ----
//
// Every failure mode of Target.Run, Target.Resume, and Sweep maps to
// one of these sentinels; test with errors.Is. The concrete errors
// carry detailed messages ("iss: misaligned lw at 0x104 (PC 0x40)") and
// match the sentinel through wrapping.
var (
	// ErrTimeout: the run exceeded its wall-clock budget — a
	// WithTimeout option, a context deadline (in which case the error
	// also matches context.DeadlineExceeded), or a sweep's per-job
	// timeout.
	ErrTimeout = diagerr.ErrTimeout
	// ErrMaxCycles: the run exceeded the WithMaxCycles budget of
	// simulated cycles.
	ErrMaxCycles = diagerr.ErrMaxCycles
	// ErrMaxInstructions: the run exceeded its retired-instruction
	// budget (WithMaxInstructions or the machine's default cap).
	ErrMaxInstructions = diagerr.ErrMaxInstructions
	// ErrBadProgram: the program itself is broken — undecodable
	// instruction, misaligned access, unsupported system call, or a
	// malformed SIMT region.
	ErrBadProgram = diagerr.ErrBadProgram
	// ErrStalled: the machine's retirement watchdog proved a livelock —
	// the full architectural state recurred with no intervening store,
	// so the program can never halt. Returned by Target.Run long
	// before a cycle budget would expire.
	ErrStalled = diagerr.ErrStalled
)

// ---- Functional run options ----

// RunOption customizes Target.Run and Target.Resume:
//
//	res, err := diag.DiAG(cfg).Run(p,
//	    diag.WithContext(ctx),
//	    diag.WithMaxCycles(1_000_000),
//	    diag.WithTrace(os.Stderr))
type RunOption func(*runOpts)

type runOpts struct {
	ctx        context.Context
	timeout    time.Duration
	maxCycles  int64
	maxInst    uint64
	runUntil   uint64
	trace      io.Writer
	traceDepth int
	obs        obsv.Observer
	shards     int
	irqAt      uint64
	irqVector  uint32
}

// WithContext runs the machine under ctx: cancellation aborts the
// simulation within a few thousand simulated instructions, returning an
// error matching context.Canceled (or ErrTimeout when the context's
// deadline expired).
func WithContext(ctx context.Context) RunOption {
	return func(o *runOpts) {
		if ctx != nil {
			o.ctx = ctx
		}
	}
}

// WithTimeout bounds the run's wall-clock time. An expired run fails
// with an error matching ErrTimeout.
func WithTimeout(d time.Duration) RunOption {
	return func(o *runOpts) { o.timeout = d }
}

// WithMaxCycles bounds the run's simulated cycle count; exceeding it
// fails the run with ErrMaxCycles.
func WithMaxCycles(n int64) RunOption {
	return func(o *runOpts) { o.maxCycles = n }
}

// WithMaxInstructions bounds the run's retired-instruction count;
// exceeding it fails the run with ErrMaxInstructions.
func WithMaxInstructions(n uint64) RunOption {
	return func(o *runOpts) { o.maxInst = n }
}

// WithTrace writes the run's instruction-mix summary and its last
// retired instructions (WithTraceDepth, default 32) to w after the run
// finishes — including after a failed run, where the tail trace is
// usually the diagnostic that matters.
func WithTrace(w io.Writer) RunOption {
	return func(o *runOpts) { o.trace = w }
}

// WithTraceDepth sets how many trailing instructions WithTrace records.
func WithTraceDepth(n int) RunOption {
	return func(o *runOpts) {
		if n > 0 {
			o.traceDepth = n
		}
	}
}

// WithObserver attaches a cycle-level event observer to the run: every
// ring (or baseline core) streams its microarchitectural events —
// cluster loads and reuse, lane transfers, retires, pipeline stages,
// mispredicts, sampled occupancies — to obs while the machine executes.
// Combine an EventCollector (for Perfetto export) with a Metrics
// registry via ObserverTee:
//
//	col := diag.NewEventCollector(0)
//	met := diag.NewMetrics(0)
//	res, err := diag.DiAG(cfg).Run(p, diag.WithObserver(diag.ObserverTee(col, met)))
//
// A nil obs leaves observability off (the default), which costs the hot
// step loops nothing. See docs/OBSERVABILITY.md for the event taxonomy.
func WithObserver(obs Observer) RunOption {
	return func(o *runOpts) { o.obs = obs }
}

// WithShards lets a multi-ring DiAG machine or multicore baseline
// execute up to n rings/cores concurrently on host goroutines
// (SetShards of the shared multi-unit engine underneath). Sharding
// is an execution strategy, not an architectural knob: statistics,
// cycle counts, final memory, observer event streams, and error
// attribution are byte-identical at any shard count. n <= 1 (the
// default) keeps the sequential engine; the ISS target ignores it
// (one hart has nothing to shard).
func WithShards(n int) RunOption {
	return func(o *runOpts) { o.shards = n }
}

// WithInterrupt arms a precise interrupt (paper §5.1.4) on hart 0:
// at the first instruction boundary where its retired count reaches
// at, control transfers to vector, every older instruction having
// retired and no younger one having any effect. The interrupted PC is
// left in Result.CPU.EPC, and the interrupt fires once. at == 0 leaves
// interrupts off. An interrupt armed when a run was checkpointed is
// part of the snapshot, so Resume keeps it without this option.
func WithInterrupt(at uint64, vector uint32) RunOption {
	return func(o *runOpts) { o.irqAt, o.irqVector = at, vector }
}

// arm applies WithInterrupt to hart 0's CPU.
func (o *runOpts) arm(cpu *iss.CPU) {
	if o.irqAt != 0 {
		cpu.InterruptAt, cpu.InterruptVector = o.irqAt, o.irqVector
	}
}

// applyOptions folds opts into a resolved option set and the run's
// context (with any WithTimeout deadline attached). Callers must defer
// the returned cancel.
func applyOptions(opts []RunOption) (runOpts, context.Context, context.CancelFunc) {
	o := runOpts{ctx: context.Background(), traceDepth: 32}
	for _, f := range opts {
		f(&o)
	}
	ctx, cancel := o.ctx, context.CancelFunc(func() {})
	if o.timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, o.timeout)
	}
	return o, ctx, cancel
}

// ---- Parallel experiment engine ----

// SweepJob is one independent simulation in a sweep, conventionally
// named "workload/config".
type SweepJob = exp.Job

// SweepResult is one job's outcome; Sweep returns results in job order
// regardless of completion order.
type SweepResult = exp.Result

// SweepProgress is delivered to SweepOptions.OnProgress after each job
// finishes.
type SweepProgress = exp.Progress

// SweepOptions bound a sweep's parallelism and per-job wall-clock time.
type SweepOptions = exp.Options

// Sweep fans independent simulation jobs across a bounded worker pool
// (SweepOptions.Workers, default GOMAXPROCS) with context cancellation,
// per-job timeouts, and panic isolation: a wedged machine model fails
// its own job, not the sweep. Per-job failures are reported in the
// results; Sweep itself only errors when ctx is done.
func Sweep(ctx context.Context, jobs []SweepJob, opt SweepOptions) ([]SweepResult, error) {
	return exp.Run(ctx, jobs, opt)
}

// ---- Parallel figure regeneration ----

// FigureOptions configure a FigureRunner: worker count, per-simulation
// timeout, and a progress callback.
type FigureOptions = bench.Options

// FigureRunner regenerates paper figures by fanning each figure's
// simulations across the experiment engine.
type FigureRunner = bench.Runner

// NewFigureRunner returns a runner whose Fig9a…Fig12, StallBreakdown,
// and ScalingSweep methods regenerate figures with parallel,
// cancellable simulations; results are byte-identical at any worker
// count.
func NewFigureRunner(ctx context.Context, opt FigureOptions) *FigureRunner {
	return bench.NewRunner(ctx, opt)
}
