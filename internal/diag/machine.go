package diag

import (
	"context"
	"fmt"

	"diag/internal/cache"
	"diag/internal/diagerr"
	"diag/internal/isa"
	"diag/internal/iss"
	"diag/internal/mem"
	"diag/internal/obsv"
)

// obsSampleInterval is how many retired instructions pass between
// occupancy samples when an observer is attached; a power of two so
// the check compiles to a mask.
const obsSampleInterval = 64

// ctxPollInterval is how many retired instructions pass between context
// polls in the run loops; a power of two so the check compiles to a
// mask. 4096 instructions simulate in well under a millisecond, so
// cancellation latency stays negligible next to any job's duration.
const ctxPollInterval = 4096

// operandSrc records who produced the current value of a register lane.
type operandSrc struct {
	ready  int64 // cycle the value becomes valid at the producer
	pos    int   // producer's window position, -1 for pre-existing values
	isLoad bool  // producer was a load (memory-stall attribution)
}

// clusterState tracks one processing cluster of the ring.
type clusterState struct {
	base    uint32 // line-aligned address of the loaded I-line
	loaded  bool
	readyAt int64 // instructions decoded and executable from this cycle
	lastUse int64 // LRU for victim selection
	busyTo  int64 // latest completion among instructions executed here
}

// Ring is one dataflow ring: a circular chain of processing clusters with
// a control unit, an I-cache, and a data path into the shared hierarchy
// (§5.1). It executes one thread.
type Ring struct {
	cfg Config
	cpu *iss.CPU

	// PreStep, when non-nil, is called once per retired instruction just
	// before the architectural step, with the current frontier cycle.
	// The fault-injection layer (internal/fault) hooks it to flip
	// architectural state at scheduled cycles without this package
	// knowing anything about faults.
	PreStep func(now int64)

	// obs, when non-nil, receives the cycle-level event stream
	// (internal/obsv). The run loop hoists the nil check so a disabled
	// ring pays nothing; unit is this ring's index in its machine.
	obs  obsv.Observer
	unit int32

	watchdog iss.Watchdog
	disabled []bool // clusters fused off for degraded-mode operation
	enabled  int    // len(clusters) minus disabled ones

	icache   *cache.Cache
	memlanes *cache.Cache // cluster-level memory lanes (§5.2)
	l1d      *cache.Cache

	clusters []clusterState
	peFree   []int64 // per window position: when the PE can take a new instance

	intSrc [isa.NumRegs]operandSrc
	fpSrc  [isa.NumRegs]operandSrc

	strides     []strideState // per window position (StridePrefetch)
	fpus        [][]int64     // per cluster shared-FPU pools (SharedFPUs)
	specTargets []specTarget  // branch PC -> last taken-target line (SpeculativeDatapaths); nil when off

	// Hot-path lookup structures, derived from the configuration and the
	// cluster array. loaded lists the indices of currently loaded
	// clusters (order irrelevant) so the per-step scans touch only
	// resident clusters. lastCi is a one-entry findCluster hint — loops
	// overwhelmingly stay in one cluster between steps — and nextCi is
	// the sequential-prefetch probe's own hint, so probing the next line
	// never evicts the step's; both are validated against the cluster's
	// base before use, so they can never go stale. seg[p] is p /
	// LaneBufferEvery, the lane segment of window position p.
	clusterBytes uint32 // ClusterBytes(), hoisted out of the step loop
	clusterMask  uint32 // ClusterBytes()-1, hoisted out of lineBase
	halfPEs      int    // PEsPerCluster/2: where the prefetch probe starts
	seg          []int32
	loaded       []int
	lastCi       int
	nextCi       int

	now           int64 // frontier: latest retire time
	prevRetire    int64
	redirectReady int64 // instructions after the last redirect start here
	busFreeAt     int64 // shared 512-bit bus (line loads + RF transport)

	// steps counts loop iterations across the ring's whole lifetime, so
	// the context-poll, watchdog, and occupancy-sample cadences line up
	// exactly whether a run executes straight through or is paused,
	// snapshotted, and resumed.
	steps uint64

	stats Stats
}

// newRing wires a ring above the shared L2 (which may be nil).
func newRing(cfg Config, m *mem.Memory, entry uint32, shared cache.Port) *Ring {
	r := &Ring{
		cfg:          cfg,
		cpu:          iss.New(m, entry),
		clusters:     make([]clusterState, cfg.Clusters),
		peFree:       make([]int64, cfg.Clusters*cfg.PEsPerCluster),
		disabled:     make([]bool, cfg.Clusters),
		enabled:      cfg.Clusters,
		clusterBytes: cfg.ClusterBytes(),
		clusterMask:  cfg.ClusterBytes() - 1,
		halfPEs:      cfg.PEsPerCluster / 2,
		seg:          make([]int32, cfg.Clusters*cfg.PEsPerCluster),
		loaded:       make([]int, 0, cfg.Clusters),
		lastCi:       -1,
		nextCi:       -1,
	}
	for p := range r.seg {
		r.seg[p] = int32(p / cfg.LaneBufferEvery)
	}
	for i := 0; i < cfg.Clusters && i < 64; i++ {
		if cfg.DisabledClusterMask&(1<<uint(i)) != 0 {
			r.disabled[i] = true
			r.enabled--
		}
	}
	r.strides = make([]strideState, cfg.Clusters*cfg.PEsPerCluster)
	if cfg.SharedFPUs > 0 {
		r.fpus = make([][]int64, cfg.Clusters)
		for i := range r.fpus {
			r.fpus[i] = make([]int64, cfg.SharedFPUs)
		}
	}
	if cfg.SpeculativeDatapaths {
		r.specTargets = make([]specTarget, specTargetSize)
	}
	r.icache = cfg.buildICache(shared)
	r.l1d = cfg.buildL1D(shared)
	r.memlanes = cache.New(cache.Config{
		Name: "memlanes", Size: cfg.MemLaneLines * 64, LineSize: 64,
		Assoc: cfg.MemLaneLines, Latency: 1,
	}, r.l1d)
	return r
}

// CPU exposes the architectural state (for examples and tests).
func (r *Ring) CPU() *iss.CPU { return r.cpu }

// SetObserver attaches o to this ring's cycle-level event stream; nil
// detaches it. With no observer attached the step loop performs no
// observability work at all.
func (r *Ring) SetObserver(o obsv.Observer) { r.obs = o }

// Observer returns the ring's event sink (nil when off).
func (r *Ring) Observer() obsv.Observer { return r.obs }

// Config returns the configuration the ring runs under.
func (r *Ring) Config() Config { return r.cfg }

// Retired counts the ring's retired instructions.
func (r *Ring) Retired() uint64 { return r.stats.Retired }

// Fresh reports that the ring has not stepped and carries no PreStep or
// CPU Hook.
func (r *Ring) Fresh() bool { return r.steps == 0 && r.PreStep == nil && r.cpu.Hook == nil }

// SetBudgets overrides MaxInstructions and MaxCycles (0 keeps one).
func (r *Ring) SetBudgets(maxInst uint64, maxCycles int64) {
	if maxInst > 0 {
		r.cfg.MaxInstructions = maxInst
	}
	if maxCycles > 0 {
		r.cfg.MaxCycles = maxCycles
	}
}

// EnabledClusters reports how many clusters are currently usable.
func (r *Ring) EnabledClusters() int { return r.enabled }

// DisableCluster fuses off cluster i at runtime — the degraded-mode
// path a detected PE fault would trigger in hardware. Its loaded line
// (if any) is dropped, so the next touch remaps through the ordinary
// cluster-reuse path onto a surviving cluster. Returns false, changing
// nothing, if i is out of range, already disabled, or disabling it
// would leave fewer than the 2 clusters alternation needs (§4.3).
func (r *Ring) DisableCluster(i int) bool {
	if i < 0 || i >= len(r.clusters) || r.disabled[i] || r.enabled <= 2 {
		return false
	}
	r.disabled[i] = true
	r.enabled--
	r.clusters[i] = clusterState{}
	r.dropLoaded(i)
	for j := 0; j < r.cfg.PEsPerCluster; j++ {
		r.peFree[i*r.cfg.PEsPerCluster+j] = 0
	}
	if r.obs != nil {
		r.obs.Emit(obsv.Event{Cycle: r.now, Kind: obsv.KindPEDisable, Unit: r.unit, Loc: int32(i)})
	}
	return true
}

// dropLoaded removes cluster i from the loaded-cluster list (swap-delete;
// order is irrelevant) and clears the lookup hints that pointed there.
func (r *Ring) dropLoaded(i int) {
	for k, ci := range r.loaded {
		if ci == i {
			r.loaded[k] = r.loaded[len(r.loaded)-1]
			r.loaded = r.loaded[:len(r.loaded)-1]
			break
		}
	}
	if r.lastCi == i {
		r.lastCi = -1
	}
	if r.nextCi == i {
		r.nextCi = -1
	}
}

// Stats returns the accumulated statistics including cache snapshots.
func (r *Ring) Stats() Stats {
	s := r.stats
	s.Cycles = r.now
	s.L1I = r.icache.Stats
	s.L1D = r.l1d.Stats
	s.MemLanes = r.memlanes.Stats
	return s
}

// activeLinger is how long (cycles) a cluster counts as active after its
// last use, for the power model's active-cluster integral.
const activeLinger = 256

// integrateActivity advances the frontier to now, accumulating active
// cluster-cycles for the power model.
func (r *Ring) integrateActivity(now int64) {
	delta := now - r.now
	used := 0
	for _, i := range r.loaded {
		if now-r.clusters[i].lastUse < activeLinger {
			used++
		}
	}
	if used == 0 {
		used = 1
	}
	r.stats.ClusterCycles += delta * int64(used)
	r.now = now
}

// lineBase returns the cluster-aligned base of addr.
func (r *Ring) lineBase(addr uint32) uint32 { return addr &^ r.clusterMask }

// findCluster returns the index of the loaded cluster containing addr.
// The last-hit hint short-circuits the overwhelmingly common case of
// consecutive steps landing in the same cluster; otherwise only loaded
// clusters are scanned.
func (r *Ring) findCluster(addr uint32) int { return r.lookup(addr, &r.lastCi) }

// lookup is findCluster through the one-entry hint *hint, which it
// validates before use and refreshes on a scan hit. A line is loaded
// into at most one cluster, so the hint never changes the answer.
func (r *Ring) lookup(addr uint32, hint *int) int {
	base := addr &^ r.clusterMask
	if ci := *hint; ci >= 0 && r.clusters[ci].base == base && r.clusters[ci].loaded {
		return ci
	}
	for _, i := range r.loaded {
		if r.clusters[i].base == base {
			*hint = i
			return i
		}
	}
	return -1
}

// windowPos maps a PC inside cluster ci to its global window position.
func (r *Ring) windowPos(ci int, pc uint32) int {
	return ci*r.cfg.PEsPerCluster + int(pc-r.clusters[ci].base)/4
}

// laneDelay returns the register-lane propagation delay from the producer
// at position from to the consumer at position to: one cycle per lane
// buffer crossed going forward (§6.1.2), to/LaneBufferEvery -
// from/LaneBufferEvery read from the segment table; a wrap backwards
// rides the shared bus (§5.1.3).
func (r *Ring) laneDelay(from, to int) int64 {
	if from < 0 {
		return 0
	}
	if from <= to {
		return int64(r.seg[to] - r.seg[from])
	}
	return int64(r.cfg.BusCycles)
}

// loadLine fetches the I-line at base into a free cluster, returning the
// cluster index and the cycle its instructions become executable. avoid
// is a cluster index that must not be evicted (-1 for none).
func (r *Ring) loadLine(base uint32, earliest int64, avoid int) (int, int64, int64) {
	// Victim selection: LRU among loaded clusters, preferring empty ones.
	victim := -1
	for i := range r.clusters {
		if i == avoid || r.disabled[i] {
			continue
		}
		if !r.clusters[i].loaded {
			victim = i
			break
		}
		if victim == -1 || r.clusters[i].lastUse < r.clusters[victim].lastUse {
			victim = i
		}
	}
	cl := &r.clusters[victim]
	if !cl.loaded {
		r.loaded = append(r.loaded, victim)
	} else if r.obs != nil {
		r.obs.Emit(obsv.Event{Cycle: earliest, Kind: obsv.KindClusterEvict,
			Unit: r.unit, Loc: int32(victim), Addr: cl.base})
	}
	// The victim must be free (all instructions complete) before reload.
	start := earliest
	if cl.busyTo > start {
		start = cl.busyTo
	}
	// The I-cache access overlaps with other bus traffic; only the line
	// transfer itself occupies the shared 512-bit bus (§5.1.3).
	fetched := r.icache.Access(start, base, false)
	transfer := fetched
	if r.busFreeAt > transfer {
		transfer = r.busFreeAt
	}
	done := transfer + int64(r.cfg.BusCycles)
	r.busFreeAt = done
	ready := done + int64(r.cfg.DecodeCycles)
	*cl = clusterState{base: base, loaded: true, readyAt: ready, lastUse: earliest}
	// Loading a new line invalidates previous instance timing for the
	// cluster's PE slots.
	for i := 0; i < r.cfg.PEsPerCluster; i++ {
		r.peFree[victim*r.cfg.PEsPerCluster+i] = 0
	}
	r.stats.LinesFetched++
	// Structural delay: waiting for a free cluster or for the shared bus.
	busDelay := (start - earliest) + (transfer - fetched)
	if r.obs != nil {
		r.obs.Emit(obsv.Event{Cycle: ready, Kind: obsv.KindClusterLoad,
			Unit: r.unit, Loc: int32(victim), Addr: base, Val: busDelay})
		r.obs.Emit(obsv.Event{Cycle: ready, Kind: obsv.KindPEEnable,
			Unit: r.unit, Loc: int32(victim), Val: int64(r.cfg.PEsPerCluster)})
	}
	return victim, ready, busDelay
}

// ensure makes the cluster holding pc resident, returning its index. kind
// records what a forced load should be attributed to.
func (r *Ring) ensure(pc uint32, earliest int64) (int, int64) {
	ci := r.findCluster(pc)
	if ci >= 0 {
		return ci, 0
	}
	ci, ready, busDelay := r.loadLine(r.lineBase(pc), earliest, -1)
	if ready > r.redirectReady {
		r.redirectReady = ready
	}
	return ci, busDelay
}

// Run executes until the program halts or the instruction cap is reached.
// It returns an error if the CPU halted abnormally.
func (r *Ring) Run() error { return r.RunContext(context.Background()) }

// RunContext is Run with cancellation: the ring polls ctx every
// ctxPollInterval retired instructions and aborts with the context's
// error (deadline expiry mapped to diagerr.ErrTimeout), so a cancelled
// run returns within microseconds rather than simulating to completion.
// It also enforces the optional Config.MaxCycles budget.
func (r *Ring) RunContext(ctx context.Context) error {
	_, err := r.RunUntil(ctx, 0)
	return err
}

// RunUntil is RunContext with a pause point: when limit > 0 the ring
// additionally stops — returning (true, nil) with every piece of state
// intact — once its total retired-instruction count reaches limit. A
// paused ring continues from exactly where it stopped on the next
// RunUntil or RunContext call; the split run retires the same
// instructions at the same cycles, polls the context and watchdog on
// the same cadence, and emits the same observer events as an unpaused
// one. SIMT regions retire whole, so a pause inside one lands at the
// next region boundary, past limit.
func (r *Ring) RunUntil(ctx context.Context, limit uint64) (paused bool, err error) {
	cfg := r.cfg
	done := ctx.Done()
	// Hoist the observer nil check out of the inner loop (like the
	// interrupt guard): with observability off the loop body carries
	// only dead, perfectly predicted branches and zero allocations.
	obs := r.obs
	var ex iss.Exec // reused per-step scratch; StepInto overwrites it fully
	if r.steps == 0 {
		r.ensure(r.cpu.PC, 0)
	}
	stop := cfg.MaxInstructions
	if limit > 0 && limit < stop {
		stop = limit
	}
	for ; !r.cpu.Halted && r.stats.Retired < stop; r.steps++ {
		steps := r.steps
		if steps&(ctxPollInterval-1) == 0 {
			select {
			case <-done:
				return false, diagerr.FromContext(ctx.Err())
			default:
			}
			if steps > 0 && r.watchdog.Stalled(r.cpu, r.stats.Stores) {
				return false, diagerr.Wrap(diagerr.ErrStalled,
					"diag: no architectural progress after %d retired instructions (PC 0x%x)",
					r.stats.Retired, r.cpu.PC)
			}
		}
		if cfg.MaxCycles > 0 && r.now > cfg.MaxCycles {
			return false, diagerr.Wrap(diagerr.ErrMaxCycles,
				"diag: cycle budget %d exceeded after %d retired instructions", cfg.MaxCycles, r.stats.Retired)
		}
		if r.PreStep != nil {
			r.PreStep(r.now)
		}
		pc := r.cpu.PC
		ci := r.findCluster(pc)
		if ci < 0 {
			// Sequential spill into an unloaded line (prefetch missed or
			// first touch): control-unit load.
			before := r.redirectReady
			var busDelay int64
			ci, busDelay = r.ensure(pc, r.now)
			if d := r.redirectReady - before; d > 0 {
				r.stats.StallCycles[StallControl] += d - busDelay
				r.stats.StallCycles[StallOther] += busDelay
			}
		}
		cl := &r.clusters[ci]
		cl.lastUse = r.now
		pos := r.windowPos(ci, pc)

		r.cpu.StepInto(&ex)
		if r.cpu.Err != nil {
			return false, fmt.Errorf("diag: %w", r.cpu.Err)
		}
		if r.cpu.Halted {
			break // ebreak halts without retiring (matches the ISS count)
		}
		if ex.PC != pc {
			// A precise interrupt redirected control between pc and
			// ex.PC (§5.1.4): the PE at the interrupted instruction set
			// the PC lane to the trap vector, disabling all later PEs;
			// the next cluster loads the handler.
			before := r.redirectReady
			var busDelay int64
			ci, busDelay = r.ensure(ex.PC, r.now)
			if d := r.redirectReady - before; d > 0 {
				r.stats.StallCycles[StallControl] += d - busDelay
				r.stats.StallCycles[StallOther] += busDelay
			}
			if rr := r.now + int64(cfg.RedirectCycles); rr > r.redirectReady {
				r.redirectReady = rr
			}
			r.stats.Redirects++
			pc = ex.PC
			cl = &r.clusters[ci]
			cl.lastUse = r.now
			pos = r.windowPos(ci, pc)
		}
		in := ex.Inst

		if in.Op == isa.OpSIMTS {
			if r.runSIMT(ex) {
				continue
			}
			// Region rejected: simt.s itself retires below and the loop
			// body executes sequentially (hardware fallback, §4.4.3).
		}

		// ---- dataflow readiness ----
		depReady := cl.readyAt // instructions exist after decode
		if r.redirectReady > depReady {
			depReady = r.redirectReady
		}
		var memWait int64

		operand := func(src operandSrc) {
			t := src.ready + r.laneDelay(src.pos, pos)
			if src.isLoad {
				if t > memWait {
					memWait = t
				}
				return
			}
			if t > depReady {
				depReady = t
			}
		}
		if in.Op.ReadsRs1() {
			if in.Op.FPRs1() {
				operand(r.fpSrc[in.Rs1])
			} else {
				operand(r.intSrc[in.Rs1])
			}
		}
		if in.Op.ReadsRs2() {
			if in.Op.FPRs2() {
				operand(r.fpSrc[in.Rs2])
			} else {
				operand(r.intSrc[in.Rs2])
			}
		}
		if in.Op.ReadsRs3() {
			operand(r.fpSrc[in.Rs3])
		}
		// A PE's next instance cannot start before the previous one
		// retires — inherent iteration serialization under reuse, part of
		// dataflow readiness rather than a counted stall source (§7.3.2
		// counts only stall sources, not serialization).
		if free := r.peFree[pos]; free > depReady {
			depReady = free
		}

		start := depReady
		if memWait > start {
			start = memWait
		}
		if s := r.fpuStart(ci, start, int64(in.Op.Class().Latency()), in.Op); s > start {
			r.stats.StallCycles[StallOther] += s - start
			start = s
		}

		// Stall attribution at the source (§7.3.2): waiting on a value
		// produced by a load is a memory stall.
		if start > depReady {
			r.stats.StallCycles[StallMemory] += start - depReady
		}

		// ---- execute ----
		lat := int64(in.Op.Class().Latency())
		done := start + lat
		if in.Op.IsLoad() {
			done = r.memlanes.Access(start+lat, ex.MemAddr, false)
			// Anything beyond a memory-lane hit is a memory stall at the
			// source (cache miss, bank queue, bus).
			if extra := done - (start + lat + 1); extra > 0 {
				r.stats.StallCycles[StallMemory] += extra
			}
			r.observeLoad(pos, ex.MemAddr, done)
			r.stats.Loads++
			r.stats.MemOps++
		}

		// ---- retire (PC lane) ----
		retire := done
		if r.prevRetire > retire {
			retire = r.prevRetire
		}
		r.prevRetire = retire
		if retire > r.now {
			r.integrateActivity(retire)
		}
		if in.Op.IsStore() {
			// Stores commit at retirement; bandwidth is consumed but the
			// program does not wait for the write to land.
			r.memlanes.Access(retire, ex.MemAddr, true)
			r.stats.Stores++
			r.stats.MemOps++
		}

		// ---- scoreboard update ----
		if in.Op.WritesRd() && in.Rd != isa.Zero || in.Op.WritesRd() && in.Op.FPRd() {
			src := operandSrc{ready: done, pos: pos, isLoad: in.Op.IsLoad()}
			if in.Op.FPRd() {
				r.fpSrc[in.Rd] = src
				if obs != nil {
					obs.Emit(obsv.Event{Cycle: done, Kind: obsv.KindFLaneXfer,
						Unit: r.unit, Loc: int32(pos), PC: pc, Val: int64(in.Rd)})
				}
			} else {
				r.intSrc[in.Rd] = src
				if obs != nil {
					obs.Emit(obsv.Event{Cycle: done, Kind: obsv.KindLaneXfer,
						Unit: r.unit, Loc: int32(pos), PC: pc, Val: int64(in.Rd)})
				}
			}
			r.stats.LaneWrites++
		}
		r.peFree[pos] = retire
		if done > cl.busyTo {
			cl.busyTo = done
		}

		// ---- component activity ----
		r.stats.PEBusyCycles += lat
		if in.Op.IsFP() {
			r.stats.FPUBusyCycles += lat
			r.stats.FPOps++
		} else if !in.Op.IsMem() && !in.Op.IsControl() {
			r.stats.ALUOps++
		}
		r.stats.Retired++
		if obs != nil {
			// PC-lane retire, anchored execute-start → retire so the
			// exporter can render it as a duration slice.
			obs.Emit(obsv.Event{Cycle: retire, Kind: obsv.KindRetire,
				Unit: r.unit, Loc: int32(ci), PC: pc, Addr: ex.MemAddr, Val: retire - start})
			if steps&(obsSampleInterval-1) == 0 {
				obs.Emit(obsv.Event{Cycle: r.now, Kind: obsv.KindClusterOccupancy,
					Unit: r.unit, Val: int64(len(r.loaded))})
			}
		}

		// ---- control flow ----
		if ex.Taken {
			r.stats.Redirects++
			if in.Op.IsBranch() {
				r.stats.TakenBranches++
			}
			backward := ex.NextPC <= pc
			ti := r.findCluster(ex.NextPC)
			if ti >= 0 {
				// Datapath reuse: instructions already loaded and decoded;
				// only the PC lane restarts (§4.3.2).
				if backward {
					r.stats.ReuseHits++
					if obs != nil {
						obs.Emit(obsv.Event{Cycle: done, Kind: obsv.KindClusterReuse,
							Unit: r.unit, Loc: int32(ti), PC: pc, Addr: ex.NextPC})
					}
				}
				rr := done + int64(r.cfg.RedirectCycles)
				if ti != ci {
					// Partial register file rides the bus between
					// non-adjacent clusters (§5.1.3).
					if (ci+1)%cfg.Clusters != ti {
						rr = done + int64(r.cfg.BusCycles) + 1
					}
				}
				r.redirectReady = rr
				r.stats.StallCycles[StallControl] += rr - done
			} else {
				if backward {
					r.stats.ReuseMisses++
				}
				vi, ready, busDelay := r.loadLine(r.lineBase(ex.NextPC), done, ci)
				if r.specTargetReady(pc, ex.NextPC) {
					// The control unit had speculatively constructed the
					// target datapath in a spare cluster: the redirect
					// pays only the PC-lane restart (§7.3.2).
					if fast := done + int64(cfg.RedirectCycles); fast < ready {
						ready = fast
						r.clusters[vi].readyAt = fast
						busDelay = 0
						r.stats.SpecDatapathHits++
					}
				}
				r.redirectReady = ready
				r.stats.StallCycles[StallControl] += (ready - done) - busDelay
				r.stats.StallCycles[StallOther] += busDelay
			}
		}
		// Untaken branches cost nothing: subsequent PEs were already
		// enabled and executing (§5.1.4).

		// Sequential prefetch: entering the last quarter of a cluster
		// preloads the next line so straight-line code never waits (§5.1.1
		// "loading a single instruction cache line ... while the current
		// clusters execute").
		if !ex.Taken && int(pc-cl.base)/4 >= r.halfPEs {
			next := cl.base + r.clusterBytes
			if r.lookup(next, &r.nextCi) < 0 {
				r.loadLine(next, r.now, ci) //nolint: background prefetch
			}
		}
	}
	if r.cpu.Err != nil {
		// An abnormal halt inside a SIMT region surfaces here rather than
		// at the per-step check.
		return false, fmt.Errorf("diag: %w", r.cpu.Err)
	}
	if r.stats.Retired >= cfg.MaxInstructions && !r.cpu.Halted {
		return false, diagerr.Wrap(diagerr.ErrMaxInstructions,
			"diag: instruction cap %d reached before halt", cfg.MaxInstructions)
	}
	return !r.cpu.Halted, nil
}
