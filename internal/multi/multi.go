// Package multi is the multi-unit machine engine both timing models
// are built on. A DiAG processor stacks rings and the out-of-order
// baseline stacks cores, but above the unit the two machines are the
// same: one shared memory, a private timing partition of the L2 and a
// DRAM access counter per unit, the tp/gp boot convention, sequential
// execution with a pause/resume cursor, disjoint-write sharding across
// host goroutines, and a snapshot envelope around the per-unit states.
// This package holds that policy once; internal/diag and internal/ooo
// plug their per-instruction units into it.
package multi

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"diag/internal/cache"
	"diag/internal/isa"
	"diag/internal/iss"
	"diag/internal/mem"
	"diag/internal/obsv"
)

// Unit is one hardware thread's timing model — a DiAG ring or an OoO
// core — as the engine drives it. C is the machine configuration every
// unit runs under; S is the unit's serializable state.
type Unit[C, S any] interface {
	// Config returns the configuration the unit runs under (the
	// machine's, budgets included).
	Config() C
	// CPU returns the unit's architectural state.
	CPU() *iss.CPU
	// RunUntil runs the unit's thread, pausing once its retired count
	// reaches limit (0 = no pause).
	RunUntil(ctx context.Context, limit uint64) (paused bool, err error)
	// Retired counts the unit's retired instructions.
	Retired() uint64
	// Fresh reports that the unit has not stepped and carries no PreStep
	// or CPU Hook — the precondition for sharded execution.
	Fresh() bool
	// Observer and SetObserver get and set the unit's event sink.
	Observer() obsv.Observer
	SetObserver(o obsv.Observer)
	// SetBudgets overrides MaxInstructions / MaxCycles (0 keeps one).
	SetBudgets(maxInst uint64, maxCycles int64)
	// State and SetState capture and restore the unit's complete state.
	State() S
	SetState(st *S) error
}

// Names spell a machine kind in error text: the package prefix
// ("diag", "ooo") and the unit noun ("ring", "core").
type Names struct{ Pkg, Unit string }

// Machine is the engine: the units above one shared memory, with their
// L2 partitions and DRAM counters.
type Machine[C, S any, U Unit[C, S]] struct {
	names Names
	mem   *mem.Memory
	l2s   []*cache.Cache // one private timing view per unit
	drams []*cache.DRAM  // one DRAM counter per unit (timing is per-unit anyway)
	units []U

	// next is the first unit that has not yet run to completion. Units
	// execute serially, so a paused machine resumes at the unit the
	// pause interrupted.
	next int

	// shards caps how many units RunUntil executes concurrently; <= 1
	// keeps the fully sequential engine. A runtime knob, not part of the
	// configuration or snapshots: sharding never changes any observable
	// output, only host wall-clock.
	shards int
}

// New wires n units above m. Units run on independent timelines, so
// each gets a private timing view of its share of the L2 (the shared
// L2's capacity is partitioned across units; its contents are
// functionally irrelevant — data always lives in m; l2Size <= 0 builds
// none). The DRAM behind it models a fixed per-access latency with no
// contention, so a per-unit access counter is timing-identical to a
// shared one and keeps sharded units from racing on it; the sums are
// reported by L2Stats and DRAMAccesses. newUnit builds unit i above its
// port; New then places the thread id in tp (x4) and the thread count
// in gp (x3) of its CPU — the convention every parallel workload in
// this repository follows.
func New[C, S any, U Unit[C, S]](names Names, m *mem.Memory, n, l2Size, dramLatency int, newUnit func(i int, shared cache.Port) U) *Machine[C, S, U] {
	mach := &Machine[C, S, U]{names: names, mem: m}
	size := l2Size
	if n > 1 && size > 0 {
		size = cache.RoundSize(max(l2Size/n, 64<<10), 64, 8)
	}
	for i := 0; i < n; i++ {
		dram := &cache.DRAM{Latency: dramLatency}
		mach.drams = append(mach.drams, dram)
		var shared cache.Port = dram
		if size > 0 {
			l2 := cache.New(cache.Config{
				Name: "L2", Size: size, LineSize: 64, Assoc: 8, Latency: 12,
			}, dram)
			mach.l2s = append(mach.l2s, l2)
			shared = l2
		}
		u := newUnit(i, shared)
		u.CPU().X[isa.TP] = uint32(i)
		u.CPU().X[isa.GP] = uint32(n)
		mach.units = append(mach.units, u)
	}
	return mach
}

// Config returns the machine's configuration. Every unit runs under
// it, so unit 0's is the machine's.
func (m *Machine[C, S, U]) Config() C { return m.units[0].Config() }

// Mem returns the machine's memory (inspectable after Run).
func (m *Machine[C, S, U]) Mem() *mem.Memory { return m.mem }

// Unit returns unit i.
func (m *Machine[C, S, U]) Unit(i int) U { return m.units[i] }

// Units returns how many units the machine has.
func (m *Machine[C, S, U]) Units() int { return len(m.units) }

// SetObserver attaches o to every unit's cycle-level event stream
// (internal/obsv); events carry the unit index in their Unit field.
// Must be called before Run; a nil o turns observability off.
func (m *Machine[C, S, U]) SetObserver(o obsv.Observer) {
	for _, u := range m.units {
		u.SetObserver(o)
	}
}

// SetHook installs h as every unit's CPU retirement hook (nil removes
// it). A hooked machine always runs sequentially.
func (m *Machine[C, S, U]) SetHook(h func(iss.Exec)) {
	for _, u := range m.units {
		u.CPU().Hook = h
	}
}

// SetBudgets overrides the MaxInstructions and MaxCycles budgets of the
// machine and every unit (0 keeps the current value); used when a
// restored snapshot's run should carry different budgets than the run
// that produced it.
func (m *Machine[C, S, U]) SetBudgets(maxInst uint64, maxCycles int64) {
	for _, u := range m.units {
		u.SetBudgets(maxInst, maxCycles)
	}
}

// SetShards sets how many units RunUntil may execute concurrently on
// host goroutines; n <= 1 (the default) keeps the sequential engine.
// Sharding is an execution strategy, not an architectural knob: every
// observable output — statistics, cycle counts, final memory, observer
// event streams, error attribution — is byte-identical at any shard
// count and any GOMAXPROCS. It is therefore not part of the
// configuration and not serialized into snapshots. Must be set before
// Run.
func (m *Machine[C, S, U]) SetShards(n int) { m.shards = n }

// Run executes every unit to completion.
//
// Units execute functionally one after another against the shared
// memory; this is sound because parallel workloads in this repository
// are data-parallel with disjoint write sets (the usual OpenMP-loop
// shape of the Rodinia kernels the paper evaluates). Timing is computed
// independently per unit over its L2 partition, and the machine's cycle
// count is the slowest unit's.
func (m *Machine[C, S, U]) Run() error { return m.RunContext(context.Background()) }

// RunContext is Run with cancellation and budget enforcement: each unit
// polls ctx while it executes, so cancelling aborts the machine within
// a few thousand simulated instructions.
func (m *Machine[C, S, U]) RunContext(ctx context.Context) error {
	_, err := m.RunUntil(ctx, 0)
	return err
}

// RunUntil is RunContext with a pause point: when limit > 0 the machine
// additionally stops — returning (true, nil) with all state intact —
// once the total retired-instruction count across units reaches limit.
// A paused machine continues exactly where it stopped on the next
// RunUntil or RunContext call, producing the same cycles, statistics,
// and observer events as an unpaused run.
func (m *Machine[C, S, U]) RunUntil(ctx context.Context, limit uint64) (paused bool, err error) {
	if m.canShard(limit) {
		return false, m.runSharded(ctx)
	}
	for m.next < len(m.units) {
		u := m.units[m.next]
		unitLimit := uint64(0)
		if limit > 0 {
			total := m.Retired()
			if total >= limit {
				return true, nil
			}
			unitLimit = u.Retired() + (limit - total)
		}
		unitPaused, err := u.RunUntil(ctx, unitLimit)
		if err != nil {
			return false, m.unitErr(m.next, err)
		}
		if unitPaused {
			return true, nil
		}
		m.next++
	}
	return false, nil
}

// unitErr attributes a unit's failure to it ("ring 2: ..."), except a
// cancellation, which is not the unit's fault and stays unadorned.
func (m *Machine[C, S, U]) unitErr(i int, err error) error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return fmt.Errorf("%s %d: %w", m.names.Unit, i, err)
}

// canShard reports whether this RunUntil call may take the concurrent
// path: a fresh, full (non-pausing) run of a multi-unit machine with no
// PreStep or CPU Hook. Paused/resumed machines, instruction-limit
// pauses, fault-injection hooks (which may mutate shared memory at
// arbitrary points) and retirement hooks such as a shared trace
// recorder (which would be called from several goroutines, in an order
// that differs from the sequential one) all fall back to the
// sequential engine.
func (m *Machine[C, S, U]) canShard(limit uint64) bool {
	if limit != 0 || m.shards <= 1 || len(m.units) <= 1 || m.next != 0 {
		return false
	}
	for _, u := range m.units {
		if !u.Fresh() {
			return false
		}
	}
	return true
}

// runSharded executes every unit concurrently, at most m.shards in
// flight, and merges the results so the outcome is indistinguishable
// from the sequential engine at any GOMAXPROCS.
//
// Sequentially, unit i runs to completion against the memory as left
// by units 0..i-1. The multi-unit contract (see Run) is that parallel
// workloads are data-parallel with disjoint write sets, so no unit's
// execution depends on another unit's writes — which means each unit
// computes the identical instruction stream, timing, and statistics
// when run against the pre-run memory instead. Only the merged final
// memory must reflect every unit's writes in unit order:
//
//   - unit 0 runs directly on the shared memory (its sequential view
//     IS the pre-run memory), so its writes land natively and first;
//   - units 1..N-1 run on private clones of the pre-run memory, and
//     their write-diffs are committed back in unit-index order after
//     all units have joined (mem.ApplyDiff iterates deterministically);
//   - observer streams: unit 0 emits live (it is the only goroutine
//     touching the real observer), later units record into private
//     buffers replayed in unit order after the join — matching the
//     sequential stream exactly;
//   - errors: the lowest failing unit index wins, mirroring the
//     sequential engine, which would have stopped there; diffs commit
//     only up to (and including) that unit, next lands on it, and the
//     units after it are rolled back to their pre-run state (unit, L2
//     partition, DRAM counter), so their stats do not count and a
//     re-run executes them — exactly as if they had never run.
func (m *Machine[C, S, U]) runSharded(ctx context.Context) error {
	pre := m.mem.Clone()
	n := len(m.units)
	clones := make([]*mem.Memory, n)
	bufs := make([]*obsv.Buffer, n)
	obs := make([]obsv.Observer, n)
	errs := make([]error, n)
	fresh := make([]S, n)
	freshL2 := make([]cache.State, len(m.l2s))
	freshDRAM := make([]uint64, n)
	for i := 1; i < n; i++ {
		u := m.units[i]
		fresh[i] = u.State()
		if len(m.l2s) > 0 {
			freshL2[i] = m.l2s[i].State()
		}
		freshDRAM[i] = m.drams[i].Accesses
		clones[i] = pre.Clone()
		u.CPU().Mem = clones[i]
		if o := u.Observer(); o != nil {
			obs[i] = o
			bufs[i] = &obsv.Buffer{}
			u.SetObserver(bufs[i])
		}
	}
	sem := make(chan struct{}, m.shards)
	var wg sync.WaitGroup
	for i, u := range m.units {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			_, errs[i] = u.RunUntil(ctx, 0)
		}()
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
		last = failed // the sequential engine never ran later units
	}
	for i := 1; i <= last; i++ {
		m.mem.ApplyDiff(pre, clones[i])
		if bufs[i] != nil {
			bufs[i].Replay(obs[i])
		}
	}
	// Repoint every unit, committed or not: the machine must stay
	// inspectable (and re-runnable through the sequential path) after a
	// failure.
	for i := 1; i < n; i++ {
		m.units[i].CPU().Mem = m.mem
		if obs[i] != nil {
			m.units[i].SetObserver(obs[i])
		}
	}
	if failed < 0 {
		m.next = n
		return nil
	}
	for i := failed + 1; i < n; i++ {
		if err := m.units[i].SetState(&fresh[i]); err != nil {
			return m.unitErr(i, err)
		}
		if len(m.l2s) > 0 {
			if err := m.l2s[i].SetState(&freshL2[i]); err != nil {
				return m.unitErr(i, err)
			}
		}
		m.drams[i].Accesses = freshDRAM[i]
	}
	m.next = failed
	return m.unitErr(failed, errs[failed])
}

// Retired counts the instructions retired across all units.
func (m *Machine[C, S, U]) Retired() uint64 {
	var n uint64
	for _, u := range m.units {
		n += u.Retired()
	}
	return n
}

// L2Stats sums the counters of every unit's L2 partition.
func (m *Machine[C, S, U]) L2Stats() cache.Stats {
	var s cache.Stats
	for _, l2 := range m.l2s {
		s.Add(l2.Stats)
	}
	return s
}

// DRAMAccesses sums every unit's DRAM access counter.
func (m *Machine[C, S, U]) DRAMAccesses() uint64 {
	var n uint64
	for _, d := range m.drams {
		n += d.Accesses
	}
	return n
}

// State is a serializable copy of a complete machine: configuration,
// memory, every unit, the L2 partitions, the DRAM access total, and
// the next-unit cursor.
type State[C, S any] struct {
	Config       C
	Mem          mem.State
	Units        []S
	L2s          []cache.State
	DRAMAccesses uint64
	Next         int
}

// State captures the machine's complete state. The machine must be
// quiescent (not running) when captured.
func (m *Machine[C, S, U]) State() *State[C, S] {
	st := &State[C, S]{
		Config:       m.Config(),
		Mem:          m.mem.State(),
		Units:        make([]S, len(m.units)),
		L2s:          make([]cache.State, len(m.l2s)),
		DRAMAccesses: m.DRAMAccesses(),
		Next:         m.next,
	}
	for i, u := range m.units {
		st.Units[i] = u.State()
	}
	for i, l2 := range m.l2s {
		st.L2s[i] = l2.State()
	}
	return st
}

// Restore loads st into a machine freshly built from st's configuration
// and memory, so it continues exactly where the captured machine
// stopped: identical cycles, statistics, memory digest, and observer
// events. It fails when st's shape does not match the machine; the
// machine must then be discarded.
func (m *Machine[C, S, U]) Restore(st *State[C, S]) error {
	pkg, unit, n := m.names.Pkg, m.names.Unit, len(m.units)
	switch {
	case len(st.Units) != n:
		return fmt.Errorf("%s: state has %d %ss, config needs %d", pkg, len(st.Units), unit, n)
	case st.Next < 0 || st.Next > n:
		return fmt.Errorf("%s: state next-%s %d out of range (%d %ss)", pkg, unit, st.Next, n, unit)
	case len(st.L2s) != len(m.l2s):
		return fmt.Errorf("%s: state has %d L2 partitions, config needs %d", pkg, len(st.L2s), len(m.l2s))
	}
	for i, l2 := range m.l2s {
		if err := l2.SetState(&st.L2s[i]); err != nil {
			return err
		}
	}
	for i, u := range m.units {
		if err := u.SetState(&st.Units[i]); err != nil {
			return fmt.Errorf("%s: %s %d: %w", pkg, unit, i, err)
		}
	}
	// The per-unit DRAM split is a host-side concern (DRAMAccesses sums
	// the counters); the serialized total restores into the first one.
	m.drams[0].Accesses = st.DRAMAccesses
	m.next = st.Next
	return nil
}
