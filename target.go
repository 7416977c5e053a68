package diag

import (
	"cmp"
	"context"
	"fmt"
	"io"

	idiag "diag/internal/diag"
	"diag/internal/diagerr"
	"diag/internal/fault"
	"diag/internal/iss"
	"diag/internal/mem"
	"diag/internal/ooo"
	"diag/internal/snap"
	"diag/internal/trace"
)

// ---- The Target API ----
//
// A Target is a runnable machine — the golden ISS, a DiAG processor, or
// the out-of-order baseline — behind one interface with deterministic
// checkpoint/restore. All three machines are deterministic: identical
// state implies an identical future, so pausing a run (WithRunUntil),
// capturing it (Checkpoint), and resuming the snapshot (Resume)
// produces exactly the statistics, memory digest, and observer events
// of an uninterrupted run.
//
//	t := diag.DiAG(diag.F4C16())
//	res, err := t.Run(p, diag.WithRunUntil(100_000)) // pause mid-run
//	s, err := t.Checkpoint()                          // capture it
//	res, err = t.Resume(s)                            // finish later —
//	                                                  // or in another process
//
// Snapshots serialize to the versioned diag-snap/v1 binary format
// (Snapshot.Encode / DecodeSnapshot), so a checkpoint taken by one
// process restores in another.

// Target is one runnable machine model. Construct one with DiAG, OoO,
// or ISS; the interface is closed (only this package implements it).
type Target interface {
	// Name identifies the target's machine: the configuration name for
	// the timing machines ("F4C16", "OoO-8w"), "iss" for the golden ISS.
	Name() string

	// Run executes p from reset under the usual run options. A run that
	// stops at a WithRunUntil pause point returns Done == false and may
	// be checkpointed; a completed run returns Done == true. Failures
	// map onto the package error taxonomy and leave nothing to
	// checkpoint.
	Run(p *Program, opts ...RunOption) (*Result, error)

	// Checkpoint captures the complete state of this target's last
	// successful Run or Resume — typically one paused by WithRunUntil.
	// It fails when there is no run to capture.
	Checkpoint() (*Snapshot, error)

	// Resume continues execution from a snapshot of this target's
	// machine kind. The snapshot's embedded configuration wins: the
	// restored machine is rebuilt from it, with only the budget options
	// (WithMaxInstructions, WithMaxCycles) overriding. Resuming a
	// snapshot does not modify it — the same Snapshot value can seed any
	// number of independent resumed runs.
	Resume(s *Snapshot, opts ...RunOption) (*Result, error)

	// fork returns a fresh target of the same configuration sharing no
	// state, for fanning one target across parallel sweep jobs. Also
	// closes the interface.
	fork() Target

	// campaign configures a fault campaign for this target's machine.
	campaign(c *fault.Campaign) error
}

// Result is the outcome of one Target run.
type Result struct {
	// Machine is the target's Name.
	Machine string
	// Done distinguishes a completed run (the program halted) from one
	// paused at a WithRunUntil point that Checkpoint can capture.
	Done bool
	// Cycles is the simulated cycle count — 0 for the untimed ISS.
	Cycles int64
	// Retired counts retired (for the ISS: executed) instructions.
	Retired uint64
	// Mem is the machine's memory, inspectable for results and digests.
	Mem *Memory

	// CPU is hart 0's final architectural state on every target: for
	// a timing machine, ring 0's or core 0's CPU.
	CPU *iss.CPU

	// Exactly one of the timing-statistics views is set, and neither
	// for the ISS.
	DiAG     *Stats         // DiAG targets
	Baseline *BaselineStats // OoO targets
}

// Snapshot is one machine's complete captured state: architectural
// registers, timing scoreboards, caches, predictors, statistics, and
// memory. It serializes to the versioned diag-snap/v1 binary format and
// is immutable once created — Resume never modifies it.
type Snapshot struct {
	s *snap.Snapshot
}

// Machine reports which machine kind the snapshot captures: "iss",
// "diag", or "ooo".
func (s *Snapshot) Machine() string { return s.s.Kind.String() }

// Target returns a fresh Target of the snapshot's machine kind,
// configured from the snapshot, so a decoded snapshot can resume
// without re-stating its configuration:
//
//	s, err := diag.DecodeSnapshot(b)
//	t, err := s.Target()
//	res, err := t.Resume(s)
func (s *Snapshot) Target() (Target, error) {
	switch s.s.Kind {
	case snap.KindISS:
		return ISS(), nil
	case snap.KindDiAG:
		return DiAG(s.s.DiAG.Config), nil
	case snap.KindOoO:
		return OoO(s.s.OoO.Config), nil
	}
	return nil, fmt.Errorf("diag: snapshot has unknown machine kind %d", s.s.Kind)
}

// Encode serializes the snapshot to the diag-snap/v1 binary format:
// a schema header, the machine state, and a trailing digest that
// DecodeSnapshot verifies.
func (s *Snapshot) Encode() ([]byte, error) { return snap.Encode(s.s) }

// WriteTo encodes the snapshot to w, implementing io.WriterTo.
func (s *Snapshot) WriteTo(w io.Writer) (int64, error) {
	b, err := snap.Encode(s.s)
	if err != nil {
		return 0, err
	}
	n, err := w.Write(b)
	return int64(n), err
}

// DecodeSnapshot deserializes a diag-snap/v1 snapshot produced by
// Snapshot.Encode or Snapshot.WriteTo. It rejects unrecognized schemas,
// corruption (the trailing digest must match), truncation, and trailing
// garbage, and never panics on arbitrary input.
func DecodeSnapshot(b []byte) (*Snapshot, error) {
	s, err := snap.Decode(b)
	if err != nil {
		return nil, err
	}
	return &Snapshot{s: s}, nil
}

// ReadSnapshot reads one complete encoded snapshot from r and decodes
// it.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	s, err := snap.Load(r)
	if err != nil {
		return nil, err
	}
	return &Snapshot{s: s}, nil
}

// WithRunUntil pauses the run — Result.Done == false, all machine state
// intact and checkpointable — once the machine's total retired (for the
// ISS: executed) instruction count reaches n. The count is absolute, so
// resuming a snapshot taken at instruction k with WithRunUntil(n) runs
// n−k further instructions. A run that halts or exhausts a budget
// before reaching n ends normally; SIMT regions retire whole, so a
// DiAG pause can overshoot n by the tail of a region.
func WithRunUntil(n uint64) RunOption {
	return func(o *runOpts) { o.runUntil = n }
}

// ---- Timing-machine targets ----

// timedMachine is the engine surface (internal/multi) both timing
// machines share.
type timedMachine interface {
	SetShards(n int)
	SetBudgets(maxInst uint64, maxCycles int64)
	SetObserver(o Observer)
	SetHook(h func(iss.Exec))
	CPU(i int) *iss.CPU
	RunUntil(ctx context.Context, limit uint64) (paused bool, err error)
	Mem() *mem.Memory
}

// timedTarget is the Target for both timing machines. The per-kind
// steps — build, restore, capture, and the stats view — are funcs
// bound by DiAG and OoO.
type timedTarget[M timedMachine] struct {
	name     string
	kind     snap.Kind
	build    func(*Program) (M, error)
	restore  func(*snap.Snapshot) (M, error)
	capture  func(M) *snap.Snapshot
	view     func(M, *Result) // fills Cycles, Retired and the stats view
	setFault func(*fault.Campaign)

	last func() *snap.Snapshot // captures the last successful run; nil when none
}

// DiAG returns the Target for a DiAG processor with cfg. The zero
// Config is valid (defaults apply).
func DiAG(cfg Config) Target {
	return &timedTarget[*idiag.Machine]{
		name:    cmp.Or(cfg.Name, "diag"),
		kind:    snap.KindDiAG,
		build:   func(p *Program) (*idiag.Machine, error) { return idiag.NewMachine(cfg, p) },
		restore: func(s *snap.Snapshot) (*idiag.Machine, error) { return idiag.NewMachineFromState(s.DiAG) },
		capture: func(m *idiag.Machine) *snap.Snapshot { return &snap.Snapshot{Kind: snap.KindDiAG, DiAG: m.State()} },
		view: func(m *idiag.Machine, r *Result) {
			st := m.Stats()
			r.Cycles, r.Retired, r.DiAG = st.Cycles, st.Retired, &st
		},
		setFault: func(c *fault.Campaign) { cfg := cfg; c.DiAG = &cfg },
	}
}

// OoO returns the Target for the out-of-order baseline with cfg. The
// zero Config is valid (defaults apply).
func OoO(cfg BaselineConfig) Target {
	return &timedTarget[*ooo.Machine]{
		name:    cmp.Or(cfg.Name, "ooo"),
		kind:    snap.KindOoO,
		build:   func(p *Program) (*ooo.Machine, error) { return ooo.NewMachine(cfg, p) },
		restore: func(s *snap.Snapshot) (*ooo.Machine, error) { return ooo.NewMachineFromState(s.OoO) },
		capture: func(m *ooo.Machine) *snap.Snapshot { return &snap.Snapshot{Kind: snap.KindOoO, OoO: m.State()} },
		view: func(m *ooo.Machine, r *Result) {
			st := m.Stats()
			r.Cycles, r.Retired, r.Baseline = st.Cycles, st.Retired, &st
		},
		setFault: func(c *fault.Campaign) { cfg := cfg; c.OoO = &cfg },
	}
}

// Name implements Target.
func (t *timedTarget[M]) Name() string { return t.name }

// Run implements Target, executing p on a fresh machine.
func (t *timedTarget[M]) Run(p *Program, opts ...RunOption) (*Result, error) {
	return t.drive(opts, func() (M, error) { return t.build(p) })
}

// Resume implements Target, rebuilding the machine from s.
func (t *timedTarget[M]) Resume(s *Snapshot, opts ...RunOption) (*Result, error) {
	if s == nil || s.s == nil || s.s.Kind != t.kind {
		return nil, fmt.Errorf("diag: target %s cannot resume a %s snapshot", t.name, snapshotKind(s))
	}
	return t.drive(opts, func() (M, error) { return t.restore(s.s) })
}

// drive builds the machine, applies the run options, runs it, and
// packages the result, retaining the machine for Checkpoint on success.
func (t *timedTarget[M]) drive(opts []RunOption, newMachine func() (M, error)) (*Result, error) {
	o, ctx, cancel := applyOptions(opts)
	defer cancel()
	t.last = nil
	mach, err := newMachine()
	if err != nil {
		return nil, err
	}
	mach.SetShards(o.shards)
	mach.SetBudgets(o.maxInst, o.maxCycles)
	o.arm(mach.CPU(0))
	if o.obs != nil {
		mach.SetObserver(o.obs)
	}
	var rec *trace.Recorder
	if o.trace != nil {
		rec = trace.NewRecorder(o.traceDepth)
		mach.SetHook(rec.Record)
	}
	paused, runErr := mach.RunUntil(ctx, o.runUntil)
	if rec != nil {
		io.WriteString(o.trace, rec.MixSummary())
		io.WriteString(o.trace, rec.Format())
	}
	if runErr != nil {
		return nil, runErr
	}
	t.last = func() *snap.Snapshot { return t.capture(mach) }
	res := &Result{Machine: t.name, Done: !paused, Mem: mach.Mem(), CPU: mach.CPU(0)}
	t.view(mach, res)
	return res, nil
}

// Checkpoint implements Target, capturing the last successful run.
func (t *timedTarget[M]) Checkpoint() (*Snapshot, error) {
	if t.last == nil {
		return nil, fmt.Errorf("diag: target %s has no run to checkpoint; Run or Resume first", t.name)
	}
	return &Snapshot{s: t.last()}, nil
}

func (t *timedTarget[M]) fork() Target {
	f := *t
	f.last = nil
	return &f
}

func (t *timedTarget[M]) campaign(c *fault.Campaign) error {
	t.setFault(c)
	return nil
}

// ---- ISS target ----

type issTarget struct {
	cpu *iss.CPU
}

// ISS returns the Target for the golden instruction-set simulator. It
// is untimed — Result.Cycles is 0 and WithMaxCycles and WithObserver
// have no effect — but supports the same pause/checkpoint/resume cycle
// as the timing machines, with the same default 500M-instruction
// budget.
func ISS() Target { return &issTarget{} }

// Name implements Target.
func (t *issTarget) Name() string { return "iss" }

// Run implements Target, executing p on a fresh ISS.
func (t *issTarget) Run(p *Program, opts ...RunOption) (*Result, error) {
	o, ctx, cancel := applyOptions(opts)
	defer cancel()
	m := mem.New()
	entry, err := p.Load(m)
	if err != nil {
		return nil, diagerr.Wrap(diagerr.ErrBadProgram, "diag: %v", err)
	}
	cpu := iss.New(m, entry)
	cpu.Boot(0, 1) // one hart, like a single-ring or single-core machine
	return t.drive(ctx, o, cpu)
}

// Resume implements Target, rebuilding the CPU from s.
func (t *issTarget) Resume(s *Snapshot, opts ...RunOption) (*Result, error) {
	o, ctx, cancel := applyOptions(opts)
	defer cancel()
	if s == nil || s.s == nil || s.s.Kind != snap.KindISS {
		return nil, fmt.Errorf("diag: target iss cannot resume a %s snapshot", snapshotKind(s))
	}
	cpu := iss.New(mem.NewFromState(&s.s.ISS.Mem), s.s.ISS.CPU.PC)
	cpu.SetState(&s.s.ISS.CPU)
	return t.drive(ctx, o, cpu)
}

// issChunk bounds how many instructions the ISS executes between
// context polls.
const issChunk = 1 << 16

func (t *issTarget) drive(ctx context.Context, o runOpts, cpu *iss.CPU) (*Result, error) {
	t.cpu = nil
	o.arm(cpu)
	var rec *trace.Recorder
	if o.trace != nil {
		rec = trace.NewRecorder(o.traceDepth)
		cpu.Hook = rec.Record
	}
	flush := func() {
		if rec != nil {
			io.WriteString(o.trace, rec.MixSummary())
			io.WriteString(o.trace, rec.Format())
		}
	}
	budget := o.maxInst
	if budget == 0 {
		budget = 500_000_000
	}
	stop := budget
	if o.runUntil > 0 && o.runUntil < stop {
		stop = o.runUntil
	}
	for !cpu.Halted && cpu.Instret < stop {
		chunk := stop - cpu.Instret
		if chunk > issChunk {
			chunk = issChunk
		}
		cpu.Run(chunk)
		if err := ctx.Err(); err != nil {
			flush()
			return nil, diagerr.FromContext(err)
		}
	}
	flush()
	if cpu.Err != nil {
		return nil, cpu.Err
	}
	paused := !cpu.Halted && o.runUntil > 0 && cpu.Instret >= o.runUntil
	if !cpu.Halted && !paused {
		return nil, diagerr.Wrap(diagerr.ErrMaxInstructions,
			"diag: iss: instruction budget %d exhausted before halt", budget)
	}
	t.cpu = cpu
	return &Result{
		Machine: "iss", Done: !paused,
		Retired: cpu.Instret, Mem: cpu.Mem, CPU: cpu,
	}, nil
}

// Checkpoint implements Target, capturing the last successful run.
func (t *issTarget) Checkpoint() (*Snapshot, error) {
	if t.cpu == nil {
		return nil, fmt.Errorf("diag: target iss has no run to checkpoint; Run or Resume first")
	}
	return &Snapshot{s: &snap.Snapshot{
		Kind: snap.KindISS,
		ISS:  &snap.ISSState{CPU: t.cpu.State(), Mem: t.cpu.Mem.State()},
	}}, nil
}

func (t *issTarget) fork() Target { return &issTarget{} }

func (t *issTarget) campaign(*fault.Campaign) error {
	return fmt.Errorf("diag: fault campaigns need a timing machine; use a DiAG or OoO target")
}

// snapshotKind names a possibly-nil snapshot's machine for error text.
func snapshotKind(s *Snapshot) string {
	if s == nil || s.s == nil {
		return "nil"
	}
	return s.s.Kind.String()
}

// ---- Target-based conveniences ----

// TargetJob builds a sweep job that runs p on a fresh fork of t; the
// result value is *Result.
func TargetJob(name string, t Target, p *Program, opts ...RunOption) SweepJob {
	ft := t.fork()
	return SweepJob{Name: name, Run: func(ctx context.Context) (any, error) {
		res, err := ft.Run(p, append(opts, WithContext(ctx))...)
		if err != nil {
			return nil, err
		}
		return res, nil
	}}
}
