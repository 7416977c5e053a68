package ooo

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

// Machine is the complete baseline: Cores out-of-order cores above a
// shared L2 and DRAM. Multicore runs use the same convention as the DiAG
// machine: each core's thread id is in tp (x4) and the thread count in
// gp (x3).
type Machine struct {
	cfg   Config
	mem   *mem.Memory
	l2s   []*cache.Cache // per-core timing view of the shared L2 partition
	drams []*cache.DRAM  // one DRAM counter per core (timing is per-core anyway)

	cores []*Core

	// nextCore is the first core that has not yet run to completion.
	// Cores execute serially, so a paused multicore machine resumes at
	// the core the pause interrupted.
	nextCore int

	// shards caps how many cores RunUntil executes concurrently; <= 1
	// keeps the fully sequential engine. A runtime knob, not part of
	// Config or snapshots: sharding never changes any observable output,
	// only host wall-clock.
	shards int
}

// buildMachine wires the cache hierarchy and cores above an
// already-populated memory; cfg must have defaults applied and be
// validated.
func buildMachine(cfg Config, m *mem.Memory, entry uint32) *Machine {
	mach := &Machine{cfg: cfg, mem: m}
	for i := 0; i < cfg.Cores; i++ {
		// Cores run on independent timelines; like the DiAG rings, each
		// gets a private timing view of its share of the L2 capacity and
		// a private DRAM access counter (the DRAM models a fixed latency
		// with no contention, so the split is timing-identical and keeps
		// sharded cores from racing; Stats sums the counters).
		dram := &cache.DRAM{Latency: cfg.DRAMLatency}
		mach.drams = append(mach.drams, dram)
		var shared cache.Port = dram
		size := cfg.L2Size
		if cfg.Cores > 1 {
			size = cache.RoundSize(max(cfg.L2Size/cfg.Cores, 64<<10), 64, 8)
		}
		if size > 0 {
			l2 := cache.New(cache.Config{
				Name: "L2", Size: size, LineSize: 64, Assoc: 8, Latency: 12,
			}, dram)
			mach.l2s = append(mach.l2s, l2)
			shared = l2
		}
		core := newCore(cfg, m, entry, shared)
		core.unit = int32(i)
		core.cpu.X[isa.TP] = uint32(i)
		core.cpu.X[isa.GP] = uint32(cfg.Cores)
		mach.cores = append(mach.cores, core)
	}
	return mach
}

// NewMachine builds and loads a machine for img.
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

// Mem returns the machine's memory.
func (m *Machine) Mem() *mem.Memory { return m.mem }

// Core returns core i.
func (m *Machine) Core(i int) *Core { return m.cores[i] }

// SetObserver attaches o to every core's cycle-level event stream
// (internal/obsv); events carry the core index in their Unit field.
// Must be called before Run; a nil o turns observability off.
func (m *Machine) SetObserver(o obsv.Observer) {
	for _, c := range m.cores {
		c.SetObserver(o)
	}
}

// SetBudgets overrides the MaxInstructions and MaxCycles budgets of the
// machine and every core (0 keeps the current value); used when a
// restored snapshot's run should carry different budgets than the run
// that produced it.
func (m *Machine) SetBudgets(maxInst uint64, maxCycles int64) {
	if maxInst > 0 {
		m.cfg.MaxInstructions = maxInst
		for _, c := range m.cores {
			c.cfg.MaxInstructions = maxInst
		}
	}
	if maxCycles > 0 {
		m.cfg.MaxCycles = maxCycles
		for _, c := range m.cores {
			c.cfg.MaxCycles = maxCycles
		}
	}
}

// Run executes every core to completion; see diag.Machine.Run for the
// data-parallel soundness argument.
func (m *Machine) Run() error { return m.RunContext(context.Background()) }

// RunContext is Run with cancellation: each core polls ctx while it
// executes, so cancelling aborts the machine within a few thousand
// simulated instructions.
func (m *Machine) RunContext(ctx context.Context) error {
	_, err := m.RunUntil(ctx, 0)
	return err
}

// RunUntil is RunContext with a pause point: when limit > 0 the machine
// additionally stops — returning (true, nil) with all state intact —
// once the total retired-instruction count across cores reaches limit.
// A paused machine continues exactly where it stopped on the next
// RunUntil or RunContext call, producing the same cycles, statistics,
// and observer events as an unpaused run.
// SetShards sets how many cores RunUntil may execute concurrently on
// host goroutines; n <= 1 (the default) keeps the sequential engine.
// Sharding is an execution strategy, not an architectural knob: every
// observable output — statistics, cycle counts, final memory, observer
// event streams, error attribution — is byte-identical at any shard
// count and any GOMAXPROCS. It is therefore not part of Config and not
// serialized into snapshots. Must be set before Run.
func (m *Machine) SetShards(n int) { m.shards = n }

// canShard reports whether this RunUntil call may take the concurrent
// path: a fresh, full (non-pausing) run of a multicore machine with no
// PreStep or CPU Hook. Paused/resumed machines, instruction-limit
// pauses, fault-injection hooks (which may mutate shared memory at
// arbitrary points) and retirement hooks such as a shared trace
// recorder (which would be called from several goroutines, in an order
// that differs from the sequential one) all fall back to the
// sequential engine.
func (m *Machine) canShard(limit uint64) bool {
	if limit != 0 || m.shards <= 1 || len(m.cores) <= 1 || m.nextCore != 0 {
		return false
	}
	for _, c := range m.cores {
		if c.PreStep != nil || c.cpu.Hook != nil || c.steps != 0 {
			return false
		}
	}
	return true
}

// runSharded executes every core concurrently, at most m.shards in
// flight, and merges the results so the outcome is indistinguishable
// from the sequential engine at any GOMAXPROCS. See
// diag.Machine.runSharded for the full argument; the structure is
// identical: core 0 runs natively on the shared memory, later cores run
// on private clones of the pre-run memory whose write-diffs are
// committed back in core-index order, observer streams are buffered and
// replayed in core order, and the lowest failing core index wins.
func (m *Machine) runSharded(ctx context.Context) error {
	pre := m.mem.Clone()
	n := len(m.cores)
	clones := make([]*mem.Memory, n)
	bufs := make([]*obsv.Buffer, n)
	obs := make([]obsv.Observer, n)
	errs := make([]error, n)
	for i, c := range m.cores {
		if i == 0 {
			continue
		}
		clones[i] = pre.Clone()
		c.cpu.Mem = clones[i]
		if c.obs != nil {
			obs[i] = c.obs
			bufs[i] = &obsv.Buffer{}
			c.obs = bufs[i]
		}
	}
	sem := make(chan struct{}, m.shards)
	var wg sync.WaitGroup
	for i, c := range m.cores {
		wg.Add(1)
		go func(i int, c *Core) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			_, errs[i] = c.RunUntil(ctx, 0)
		}(i, c)
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
		last = failed // the sequential engine never ran later cores
	}
	for i := 1; i <= last; i++ {
		c := m.cores[i]
		c.cpu.Mem = m.mem
		m.mem.ApplyDiff(pre, clones[i])
		if bufs[i] != nil {
			bufs[i].Replay(obs[i])
		}
	}
	// Repoint uncommitted cores too: the machine must stay inspectable
	// after a failure.
	for i := last + 1; i < n; i++ {
		m.cores[i].cpu.Mem = m.mem
	}
	for i := 1; i < n; i++ {
		if obs[i] != nil {
			m.cores[i].obs = obs[i]
		}
	}
	if failed >= 0 {
		m.nextCore = failed
		err := errs[failed]
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return err // not the core's fault; keep the error unadorned
		}
		return fmt.Errorf("core %d: %w", failed, err)
	}
	m.nextCore = n
	return nil
}

func (m *Machine) RunUntil(ctx context.Context, limit uint64) (paused bool, err error) {
	if m.canShard(limit) {
		return false, m.runSharded(ctx)
	}
	for m.nextCore < len(m.cores) {
		c := m.cores[m.nextCore]
		coreLimit := uint64(0)
		if limit > 0 {
			total := m.totalRetired()
			if total >= limit {
				return true, nil
			}
			coreLimit = c.stats.Retired + (limit - total)
		}
		corePaused, err := c.RunUntil(ctx, coreLimit)
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return false, err // not the core's fault; keep the error unadorned
			}
			return false, fmt.Errorf("core %d: %w", m.nextCore, err)
		}
		if corePaused {
			return true, nil
		}
		m.nextCore++
	}
	return false, nil
}

func (m *Machine) totalRetired() uint64 {
	var n uint64
	for _, c := range m.cores {
		n += c.stats.Retired
	}
	return n
}

// Stats aggregates the machine's statistics on demand: the merge over
// all cores plus the shared L2 and DRAM counters. Valid at any point —
// after Run, at a RunUntil pause, or mid-construction (all zeros).
func (m *Machine) Stats() Stats {
	var s Stats
	for _, c := range m.cores {
		s.Merge(c.Stats())
	}
	for _, l2 := range m.l2s {
		mergeCache(&s.L2, l2.Stats)
	}
	for _, d := range m.drams {
		s.DRAMAccesses += d.Accesses
	}
	return s
}

// RunImage builds a machine, runs it, and returns stats and final memory.
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
