package diag

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"diag/internal/cache"
	"diag/internal/isa"
	"diag/internal/mem"
	"diag/internal/obsv"
)

// Machine is a complete DiAG processor: one or more dataflow rings above
// a shared L2 and DRAM (§5.1). With Rings == 1 it runs a single thread;
// with Rings > 1 it exploits spatial parallelism, one thread per ring
// (§4.4: "multiple rows of processing clusters", used by the paper's
// 16-by-2 multi-thread configuration).
type Machine struct {
	cfg   Config
	mem   *mem.Memory
	l2s   []*cache.Cache // one private timing view per ring
	drams []*cache.DRAM  // one DRAM counter per ring (timing is per-ring anyway)

	rings []*Ring

	// nextRing is the first ring that has not yet run to completion.
	// Rings execute serially, so a paused multi-ring machine resumes at
	// the ring the pause interrupted.
	nextRing int

	// shards caps how many rings RunUntil executes concurrently; <= 1
	// keeps the fully sequential engine. A runtime knob, not part of
	// Config or snapshots: sharding never changes any observable output,
	// only host wall-clock.
	shards int
}

// buildMachine wires the cache hierarchy and rings above an
// already-populated memory; cfg must have defaults applied and be
// validated.
func buildMachine(cfg Config, m *mem.Memory, entry uint32) *Machine {
	mach := &Machine{cfg: cfg, mem: m}
	for i := 0; i < cfg.Rings; i++ {
		// Rings run on independent timelines, so each gets a private
		// timing view of its L2 share: the shared L2's capacity is
		// partitioned across rings (its contents are functionally
		// irrelevant — data always lives in mem.Memory). The DRAM behind
		// it models a fixed per-access latency with no contention, so a
		// per-ring access counter is timing-identical to a shared one
		// and keeps sharded rings from racing on it; Stats sums them.
		dram := &cache.DRAM{Latency: cfg.DRAMLatency}
		mach.drams = append(mach.drams, dram)
		var shared cache.Port = dram
		ringCfg := cfg
		if cfg.Rings > 1 && cfg.L2Size > 0 {
			ringCfg.L2Size = cache.RoundSize(max(cfg.L2Size/cfg.Rings, 64<<10), 64, 8)
		}
		if l2 := ringCfg.buildL2(dram); l2 != nil {
			mach.l2s = append(mach.l2s, l2)
			shared = l2
		}
		r := newRing(cfg, m, entry, shared)
		r.unit = int32(i)
		r.cpu.X[isa.TP] = uint32(i)
		r.cpu.X[isa.GP] = uint32(cfg.Rings)
		mach.rings = append(mach.rings, r)
	}
	return mach
}

// NewMachine builds a machine for the image. Multi-ring machines place
// the thread id in register tp (x4) and the thread count in gp (x3) of
// each ring's CPU before execution — the convention all parallel
// workloads in this repository follow.
func NewMachine(cfg Config, img *mem.Image) (*Machine, error) {
	cfg.setDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := mem.New()
	entry, err := img.Load(m)
	if err != nil {
		return nil, err
	}
	return buildMachine(cfg, m, entry), nil
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// Mem returns the machine's memory (inspectable after Run).
func (m *Machine) Mem() *mem.Memory { return m.mem }

// Ring returns ring i (for single-thread runs, Ring(0) is the whole
// machine).
func (m *Machine) Ring(i int) *Ring { return m.rings[i] }

// SetObserver attaches o to every ring's cycle-level event stream
// (internal/obsv); events carry the ring index in their Unit field.
// Must be called before Run; a nil o turns observability off.
func (m *Machine) SetObserver(o obsv.Observer) {
	for _, r := range m.rings {
		r.SetObserver(o)
	}
}

// SetBudgets overrides the MaxInstructions and MaxCycles budgets of the
// machine and every ring (0 keeps the current value); used when a
// restored snapshot's run should carry different budgets than the run
// that produced it.
func (m *Machine) SetBudgets(maxInst uint64, maxCycles int64) {
	if maxInst > 0 {
		m.cfg.MaxInstructions = maxInst
		for _, r := range m.rings {
			r.cfg.MaxInstructions = maxInst
		}
	}
	if maxCycles > 0 {
		m.cfg.MaxCycles = maxCycles
		for _, r := range m.rings {
			r.cfg.MaxCycles = maxCycles
		}
	}
}

// Run executes every ring to completion and aggregates statistics.
//
// Rings execute functionally one after another against the shared
// memory; this is sound because parallel workloads in this repository
// are data-parallel with disjoint write sets (the usual OpenMP-loop
// shape of the Rodinia kernels the paper evaluates). Timing is computed
// independently per ring over the shared L2, and the machine's cycle
// count is the slowest ring.
func (m *Machine) Run() error { return m.RunContext(context.Background()) }

// RunContext is Run with cancellation and budget enforcement: each ring
// polls ctx while it executes, so cancelling aborts the machine within
// a few thousand simulated instructions.
func (m *Machine) RunContext(ctx context.Context) error {
	_, err := m.RunUntil(ctx, 0)
	return err
}

// SetShards sets how many rings RunUntil may execute concurrently on
// host goroutines; n <= 1 (the default) keeps the sequential engine.
// Sharding is an execution strategy, not an architectural knob: every
// observable output — statistics, cycle counts, final memory, observer
// event streams, error attribution — is byte-identical at any shard
// count and any GOMAXPROCS. It is therefore not part of Config and not
// serialized into snapshots. Must be set before Run.
func (m *Machine) SetShards(n int) { m.shards = n }

// canShard reports whether this RunUntil call may take the concurrent
// path: a fresh, full (non-pausing) run of a multi-ring machine with no
// PreStep or CPU Hook. Paused/resumed machines, instruction-limit
// pauses, fault-injection hooks (which may mutate shared memory at
// arbitrary points) and retirement hooks such as a shared trace
// recorder (which would be called from several goroutines, in an order
// that differs from the sequential one) all fall back to the
// sequential engine.
func (m *Machine) canShard(limit uint64) bool {
	if limit != 0 || m.shards <= 1 || len(m.rings) <= 1 || m.nextRing != 0 {
		return false
	}
	for _, r := range m.rings {
		if r.PreStep != nil || r.cpu.Hook != nil || r.steps != 0 {
			return false
		}
	}
	return true
}

// RunUntil is RunContext with a pause point: when limit > 0 the machine
// additionally stops — returning (true, nil) with all state intact —
// once the total retired-instruction count across rings reaches limit.
// A paused machine continues exactly where it stopped on the next
// RunUntil or RunContext call, producing the same cycles, statistics,
// and observer events as an unpaused run.
func (m *Machine) RunUntil(ctx context.Context, limit uint64) (paused bool, err error) {
	if m.canShard(limit) {
		return false, m.runSharded(ctx)
	}
	for m.nextRing < len(m.rings) {
		r := m.rings[m.nextRing]
		ringLimit := uint64(0)
		if limit > 0 {
			total := m.totalRetired()
			if total >= limit {
				return true, nil
			}
			ringLimit = r.stats.Retired + (limit - total)
		}
		ringPaused, err := r.RunUntil(ctx, ringLimit)
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return false, err // not the ring's fault; keep the error unadorned
			}
			return false, fmt.Errorf("ring %d: %w", m.nextRing, err)
		}
		if ringPaused {
			return true, nil
		}
		m.nextRing++
	}
	return false, nil
}

// runSharded executes every ring concurrently, at most m.shards in
// flight, and merges the results so the outcome is indistinguishable
// from the sequential engine at any GOMAXPROCS.
//
// Sequentially, ring i runs to completion against the memory as left
// by rings 0..i-1. The multi-ring contract (see Run) is that parallel
// workloads are data-parallel with disjoint write sets, so no ring's
// execution depends on another ring's writes — which means each ring
// computes the identical instruction stream, timing, and statistics
// when run against the pre-run memory instead. Only the merged final
// memory must reflect every ring's writes in ring order:
//
//   - ring 0 runs directly on the shared memory (its sequential view
//     IS the pre-run memory), so its writes land natively and first;
//   - rings 1..N-1 run on private clones of the pre-run memory, and
//     their write-diffs are committed back in ring-index order after
//     all rings have joined (mem.ApplyDiff iterates deterministically);
//   - observer streams: ring 0 emits live (it is the only goroutine
//     touching the real observer), later rings record into private
//     buffers replayed in ring order after the join — matching the
//     sequential stream exactly;
//   - errors: the lowest failing ring index wins, mirroring the
//     sequential engine, which would have stopped there; diffs commit
//     only up to (and including) that ring, and nextRing lands on it.
func (m *Machine) runSharded(ctx context.Context) error {
	pre := m.mem.Clone()
	n := len(m.rings)
	clones := make([]*mem.Memory, n)
	bufs := make([]*obsv.Buffer, n)
	obs := make([]obsv.Observer, n)
	errs := make([]error, n)
	for i, r := range m.rings {
		if i == 0 {
			continue
		}
		clones[i] = pre.Clone()
		r.cpu.Mem = clones[i]
		if r.obs != nil {
			obs[i] = r.obs
			bufs[i] = &obsv.Buffer{}
			r.obs = bufs[i]
		}
	}
	sem := make(chan struct{}, m.shards)
	var wg sync.WaitGroup
	for i, r := range m.rings {
		wg.Add(1)
		go func(i int, r *Ring) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			_, errs[i] = r.RunUntil(ctx, 0)
		}(i, r)
	}
	wg.Wait()

	failed := -1
	for i, e := range errs {
		if e != nil {
			failed = i
			break
		}
	}
	last := n - 1
	if failed >= 0 {
		last = failed // the sequential engine never ran later rings
	}
	for i := 1; i <= last; i++ {
		r := m.rings[i]
		r.cpu.Mem = m.mem
		m.mem.ApplyDiff(pre, clones[i])
		if bufs[i] != nil {
			bufs[i].Replay(obs[i])
		}
	}
	// Repoint uncommitted rings too: the machine must stay inspectable
	// (and re-runnable through the sequential path) after a failure.
	for i := last + 1; i < n; i++ {
		m.rings[i].cpu.Mem = m.mem
	}
	for i := 1; i < n; i++ {
		if obs[i] != nil {
			m.rings[i].obs = obs[i]
		}
	}
	if failed >= 0 {
		m.nextRing = failed
		err := errs[failed]
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return err // not the ring's fault; keep the error unadorned
		}
		return fmt.Errorf("ring %d: %w", failed, err)
	}
	m.nextRing = n
	return nil
}

func (m *Machine) totalRetired() uint64 {
	var n uint64
	for _, r := range m.rings {
		n += r.stats.Retired
	}
	return n
}

// Stats aggregates the machine's statistics on demand: the merge over
// all rings plus the shared L2 and DRAM counters. Valid at any point —
// after Run, at a RunUntil pause, or mid-construction (all zeros).
func (m *Machine) Stats() Stats {
	var s Stats
	for _, r := range m.rings {
		s.Merge(r.Stats())
	}
	for _, l2 := range m.l2s {
		mergeCache(&s.L2, l2.Stats)
	}
	for _, d := range m.drams {
		s.DRAMAccesses += d.Accesses
	}
	return s
}

// RunImage is the one-call convenience: build a machine, run it, return
// the stats and final memory.
func RunImage(cfg Config, img *mem.Image) (Stats, *mem.Memory, error) {
	return RunImageContext(context.Background(), cfg, img)
}

// RunImageContext is RunImage with cancellation.
func RunImageContext(ctx context.Context, cfg Config, img *mem.Image) (Stats, *mem.Memory, error) {
	mach, err := NewMachine(cfg, img)
	if err != nil {
		return Stats{}, nil, err
	}
	if err := mach.RunContext(ctx); err != nil {
		return Stats{}, nil, err
	}
	return mach.Stats(), mach.Mem(), nil
}
