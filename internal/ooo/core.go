package ooo

import (
	"context"
	"fmt"

	"diag/internal/branch"
	"diag/internal/cache"
	"diag/internal/diagerr"
	"diag/internal/isa"
	"diag/internal/iss"
	"diag/internal/mem"
	"diag/internal/obsv"
)

// Stats aggregates one core's (or one machine's) execution counters.
// Field order is diag-snap/v1: a new or moved field needs a schema bump.
type Stats struct {
	Cycles  int64
	Retired uint64

	// Branch prediction.
	Branches    uint64
	Mispredicts uint64
	BTBMisses   uint64

	// Event counts consumed by the McPAT-like power model: every retired
	// instruction passes through all frontend structures; wrong-path work
	// after mispredictions is estimated separately.
	FetchedInsts  uint64 // includes estimated wrong-path fetches
	RenameOps     uint64
	IQWakeups     uint64
	RegReads      uint64
	RegWrites     uint64
	ROBWrites     uint64
	FUBusyCycles  int64
	FPBusyCycles  int64
	LSQSearches   uint64
	StoreForwards uint64
	Loads, Stores uint64

	L1I, L1D, L2 cache.Stats
	DRAMAccesses uint64
}

// IPC returns retired instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Retired) / float64(s.Cycles)
}

// MispredictRate returns mispredictions per branch.
func (s Stats) MispredictRate() float64 {
	if s.Branches == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.Branches)
}

// Merge accumulates o into s (multicore aggregation: max cycles, summed
// event counts).
func (s *Stats) Merge(o Stats) {
	if o.Cycles > s.Cycles {
		s.Cycles = o.Cycles
	}
	s.Retired += o.Retired
	s.Branches += o.Branches
	s.Mispredicts += o.Mispredicts
	s.BTBMisses += o.BTBMisses
	s.FetchedInsts += o.FetchedInsts
	s.RenameOps += o.RenameOps
	s.IQWakeups += o.IQWakeups
	s.RegReads += o.RegReads
	s.RegWrites += o.RegWrites
	s.ROBWrites += o.ROBWrites
	s.FUBusyCycles += o.FUBusyCycles
	s.FPBusyCycles += o.FPBusyCycles
	s.LSQSearches += o.LSQSearches
	s.StoreForwards += o.StoreForwards
	s.Loads += o.Loads
	s.Stores += o.Stores
	s.L1I.Add(o.L1I)
	s.L1D.Add(o.L1D)
	s.L2.Add(o.L2)
	s.DRAMAccesses += o.DRAMAccesses
}

// fuPool models a class of functional units: k units, each either fully
// pipelined (occupancy 1) or blocking (occupancy = latency).
type fuPool struct {
	freeAt    []int64
	pipelined bool
}

func newFUPool(n int, pipelined bool) *fuPool {
	return &fuPool{freeAt: make([]int64, n), pipelined: pipelined}
}

// acquire returns the earliest start >= ready on any unit and reserves it.
func (p *fuPool) acquire(ready, latency int64) int64 {
	best := 0
	for i := 1; i < len(p.freeAt); i++ {
		if p.freeAt[i] < p.freeAt[best] {
			best = i
		}
	}
	start := ready
	if p.freeAt[best] > start {
		start = p.freeAt[best]
	}
	if p.pipelined {
		p.freeAt[best] = start + 1
	} else {
		p.freeAt[best] = start + latency
	}
	return start
}

// lsqEntry tracks an in-flight store for store-to-load forwarding.
type lsqEntry struct {
	addr  uint32
	size  uint32
	ready int64 // when the store's data is available for forwarding
}

// lastStore is one slot of the store index: the newest store whose word
// maps to the slot. seq is that store's 1-based number in the core's
// lifetime store count; 0 marks a slot no store has written.
type lastStore struct {
	word uint32
	seq  uint64
}

// Core is one out-of-order core's timing scoreboard.
type Core struct {
	cfg Config
	cpu *iss.CPU

	// PreStep, when non-nil, is called once per retired instruction just
	// before the architectural step, with the current commit cycle. The
	// fault-injection layer (internal/fault) hooks it to flip
	// architectural state at scheduled cycles.
	PreStep func(now int64)

	watchdog iss.Watchdog

	icache *cache.Cache
	l1d    *cache.Cache

	pred *branch.Tournament
	btb  *branch.BTB
	ras  *branch.RAS

	intReady [isa.NumRegs]int64
	fpReady  [isa.NumRegs]int64

	alu, muldiv, fp, mp *fuPool

	retireAt    []int64 // ring buffer of the last ROBSize retire times
	retireHead  int
	issueTimes  []int64 // ring of the last IQSize issue times (IQ occupancy)
	issueHead   int
	lsqTimes    []int64 // ring of the last LSQSize retire times of mem ops
	lsqHead     int
	storeWindow []lsqEntry // fixed ring of the last LSQSize stores
	storeHead   int        // next write slot
	storeLen    int        // valid entries, ≤ LSQSize

	// storeIndex maps a word (addr>>2 & indexMask) to the newest store
	// that wrote any word in its slot, so forward finds the youngest
	// matching store without scanning the window. It is derived from the
	// window (SetState rebuilds it) and never serialized. storeSeq counts
	// pushed stores; 64 bits so it cannot wrap.
	storeIndex []lastStore
	indexMask  uint32
	storeSeq   uint64

	fetchCycle  int64 // cycle the next fetch group begins
	fetchInGrp  int   // instructions fetched in the current group
	prevRetire  int64
	retireInGrp int

	obs  obsv.Observer // nil = observability off (the default)
	unit int32         // core index, stamped into every emitted event

	// steps counts loop iterations across the core's whole lifetime, so
	// the context-poll, watchdog, and occupancy-sample cadences line up
	// exactly whether a run executes straight through or is paused,
	// snapshotted, and resumed.
	steps uint64

	now   int64
	stats Stats
}

// SetObserver attaches o to the core's cycle-level event stream
// (internal/obsv). Must be called before Run; nil turns it off.
func (c *Core) SetObserver(o obsv.Observer) { c.obs = o }

// newCore builds one core above the shared port.
func newCore(cfg Config, m *mem.Memory, entry uint32, shared cache.Port) *Core {
	c := &Core{
		cfg:         cfg,
		cpu:         iss.New(m, entry),
		pred:        branch.NewTournament(cfg.PredictorBits),
		btb:         branch.NewBTB(cfg.BTBBits),
		ras:         branch.NewRAS(cfg.RASDepth),
		alu:         newFUPool(cfg.IntALUs, true),
		muldiv:      newFUPool(cfg.IntMulDiv, false),
		fp:          newFUPool(cfg.FPUnits, true),
		mp:          newFUPool(cfg.MemPorts, true),
		retireAt:    make([]int64, cfg.ROBSize),
		issueTimes:  make([]int64, cfg.IQSize),
		lsqTimes:    make([]int64, cfg.LSQSize),
		storeWindow: make([]lsqEntry, cfg.LSQSize),
	}
	// Two or more slots per window entry keep collisions, and so the
	// scan fallback, rare.
	n := 1
	for n < 2*cfg.LSQSize {
		n <<= 1
	}
	c.storeIndex = make([]lastStore, n)
	c.indexMask = uint32(n - 1)
	c.icache = cache.New(cache.Config{
		Name: "L1I", Size: cfg.L1ISize, LineSize: 64, Assoc: 4, Latency: 1,
	}, shared)
	c.l1d = cache.New(cache.Config{
		Name: "L1D", Size: cfg.L1DSize, LineSize: 64, Assoc: 8, Latency: 2, Banks: 4,
	}, shared)
	return c
}

// CPU exposes the core's architectural state.
func (c *Core) CPU() *iss.CPU { return c.cpu }

// Observer returns the core's event sink (nil when off).
func (c *Core) Observer() obsv.Observer { return c.obs }

// Config returns the configuration the core runs under.
func (c *Core) Config() Config { return c.cfg }

// Retired counts the core's retired instructions.
func (c *Core) Retired() uint64 { return c.stats.Retired }

// Fresh reports that the core has not stepped and carries no PreStep or
// CPU Hook.
func (c *Core) Fresh() bool { return c.steps == 0 && c.PreStep == nil && c.cpu.Hook == nil }

// SetBudgets overrides MaxInstructions and MaxCycles (0 keeps one).
func (c *Core) SetBudgets(maxInst uint64, maxCycles int64) {
	if maxInst > 0 {
		c.cfg.MaxInstructions = maxInst
	}
	if maxCycles > 0 {
		c.cfg.MaxCycles = maxCycles
	}
}

// Stats returns this core's counters with cache snapshots.
func (c *Core) Stats() Stats {
	s := c.stats
	s.Cycles = c.now
	s.L1I = c.icache.Stats
	s.L1D = c.l1d.Stats
	return s
}

func (c *Core) latency(op isa.Op) int64 { return int64(op.Class().Latency()) }

func (c *Core) pool(op isa.Op) *fuPool {
	switch op.Class() {
	case isa.ClassMul, isa.ClassDiv:
		return c.muldiv
	case isa.ClassFPAdd, isa.ClassFPMul, isa.ClassFPDiv, isa.ClassFPSqrt, isa.ClassFMA:
		return c.fp
	case isa.ClassLoad, isa.ClassStore:
		return c.mp
	default:
		return c.alu
	}
}

// ctxPollInterval matches the DiAG ring's polling cadence: check the
// context every 4096 retired instructions (a power of two, so the test
// is a mask), keeping cancellation latency well under a millisecond.
const ctxPollInterval = 4096

// obsSampleInterval is the occupancy sampling cadence when an observer
// is attached: every 64 retired instructions (mask test, like the
// context poll) the core reports ROB/IQ/LSQ occupancy.
const obsSampleInterval = 64

// Run executes the core's thread to completion.
func (c *Core) Run() error { return c.RunContext(context.Background()) }

// RunContext is Run with cancellation and the optional Config.MaxCycles
// budget: the core polls ctx as it retires instructions and aborts with
// the context's error (deadline expiry mapped to diagerr.ErrTimeout).
func (c *Core) RunContext(ctx context.Context) error {
	_, err := c.RunUntil(ctx, 0)
	return err
}

// RunUntil is RunContext with a pause point: when limit > 0 the core
// additionally stops — returning (true, nil) with every piece of state
// intact — once its total retired-instruction count reaches limit. A
// paused core continues from exactly where it stopped on the next
// RunUntil or RunContext call; the split run commits the same
// instructions at the same cycles, polls the context and watchdog on
// the same cadence, and emits the same observer events as an unpaused
// one.
func (c *Core) RunUntil(ctx context.Context, limit uint64) (paused bool, err error) {
	cfg := c.cfg
	done := ctx.Done()
	// Hoist the observer nil check out of the inner loop (like the
	// interrupt guard in the DiAG ring): with observability off the hot
	// path pays one register compare, no interface dispatch.
	obs := c.obs
	var ex iss.Exec // reused per-step scratch; StepInto overwrites it fully
	stop := cfg.MaxInstructions
	if limit > 0 && limit < stop {
		stop = limit
	}
	for ; !c.cpu.Halted && c.stats.Retired < stop; c.steps++ {
		steps := c.steps
		if steps&(ctxPollInterval-1) == 0 {
			select {
			case <-done:
				return false, diagerr.FromContext(ctx.Err())
			default:
			}
			if steps > 0 && c.watchdog.Stalled(c.cpu, c.stats.Stores) {
				return false, diagerr.Wrap(diagerr.ErrStalled,
					"ooo: no architectural progress after %d retired instructions (PC 0x%x)",
					c.stats.Retired, c.cpu.PC)
			}
		}
		if cfg.MaxCycles > 0 && c.now > cfg.MaxCycles {
			return false, diagerr.Wrap(diagerr.ErrMaxCycles,
				"ooo: cycle budget %d exceeded after %d retired instructions", cfg.MaxCycles, c.stats.Retired)
		}
		if c.PreStep != nil {
			c.PreStep(c.now)
		}
		pc := c.cpu.PC
		c.cpu.StepInto(&ex)
		if c.cpu.Err != nil {
			return false, fmt.Errorf("ooo: %w", c.cpu.Err)
		}
		if c.cpu.Halted {
			break
		}
		if ex.PC != pc {
			// Precise interrupt: squash the window and refetch from the
			// vector after the previous instruction commits.
			c.fetchBubble(c.prevRetire + int64(cfg.FrontendDepth))
			pc = ex.PC
		}
		in := ex.Inst

		// ---- fetch ----
		// Groups of FetchWidth per cycle along the (implicitly predicted)
		// path; the I-cache is charged once per line.
		if c.fetchInGrp >= cfg.FetchWidth {
			c.fetchCycle++
			c.fetchInGrp = 0
		}
		if pc&63 == 0 || c.fetchInGrp == 0 {
			done := c.icache.Access(c.fetchCycle, pc, false)
			if done-1 > c.fetchCycle {
				c.fetchCycle = done - 1 // I-miss stalls the fetch group
			}
		}
		c.fetchInGrp++
		c.stats.FetchedInsts++
		fetchDone := c.fetchCycle

		// ---- rename/dispatch (frontend depth) with ROB/IQ/LSQ occupancy ----
		dispatch := fetchDone + int64(cfg.FrontendDepth)
		if oldest := c.retireAt[c.retireHead]; oldest > dispatch {
			dispatch = oldest // ROB full: wait for the oldest to retire
		}
		if oldest := c.issueTimes[c.issueHead]; oldest > dispatch {
			dispatch = oldest // IQ full
		}
		if in.Op.IsMem() {
			if oldest := c.lsqTimes[c.lsqHead]; oldest > dispatch {
				dispatch = oldest // LSQ full
			}
		}
		c.stats.RenameOps++
		c.stats.ROBWrites++

		// ---- operand readiness ----
		ready := dispatch
		readOp := func(t int64) {
			if t > ready {
				ready = t
			}
			c.stats.RegReads++
		}
		if in.Op.ReadsRs1() {
			if in.Op.FPRs1() {
				readOp(c.fpReady[in.Rs1])
			} else {
				readOp(c.intReady[in.Rs1])
			}
		}
		if in.Op.ReadsRs2() {
			if in.Op.FPRs2() {
				readOp(c.fpReady[in.Rs2])
			} else {
				readOp(c.intReady[in.Rs2])
			}
		}
		if in.Op.ReadsRs3() {
			readOp(c.fpReady[in.Rs3])
		}

		// ---- issue/execute ----
		lat := c.latency(in.Op)
		start := c.pool(in.Op).acquire(ready, lat)
		c.stats.IQWakeups++
		done := start + lat
		c.stats.FUBusyCycles += lat
		if in.Op.IsFP() {
			c.stats.FPBusyCycles += lat
		}

		switch {
		case in.Op.IsLoad():
			c.stats.Loads++
			c.stats.LSQSearches++
			if fw, ok := c.forward(ex.MemAddr); ok {
				c.stats.StoreForwards++
				if fw+1 > done {
					done = fw + 1
				}
			} else {
				done = c.l1d.Access(start+1, ex.MemAddr, false)
			}
		case in.Op.IsStore():
			c.stats.Stores++
			c.pushStore(ex.MemAddr, done)
		}

		// ---- control flow resolution ----
		if in.Op.IsControl() {
			c.resolveControl(pc, ex, done)
		}

		// ---- commit ----
		if c.retireInGrp >= cfg.CommitWidth {
			c.prevRetire++
			c.retireInGrp = 0
		}
		retire := done
		if c.prevRetire > retire {
			retire = c.prevRetire
		}
		c.prevRetire = retire
		c.retireInGrp++
		if in.Op.IsStore() {
			// The store writes the cache at commit.
			c.l1d.Access(retire, ex.MemAddr, true)
		}
		c.retireAt[c.retireHead] = retire
		c.retireHead = next(c.retireHead, len(c.retireAt))
		c.issueTimes[c.issueHead] = start
		c.issueHead = next(c.issueHead, len(c.issueTimes))
		if in.Op.IsMem() {
			c.lsqTimes[c.lsqHead] = retire
			c.lsqHead = next(c.lsqHead, len(c.lsqTimes))
		}
		if retire > c.now {
			c.now = retire
		}

		// ---- writeback ----
		if in.Op.WritesRd() && (in.Rd != isa.Zero || in.Op.FPRd()) {
			if in.Op.FPRd() {
				c.fpReady[in.Rd] = done
			} else {
				c.intReady[in.Rd] = done
			}
			c.stats.RegWrites++
		}
		c.stats.Retired++
		if obs != nil {
			// One event per pipeline stage the instruction passed through,
			// each stamped with the cycle it cleared that stage.
			obs.Emit(obsv.Event{Cycle: fetchDone, Kind: obsv.KindFetch, Unit: c.unit, PC: pc})
			obs.Emit(obsv.Event{Cycle: dispatch, Kind: obsv.KindRename, Unit: c.unit, PC: pc})
			obs.Emit(obsv.Event{Cycle: start, Kind: obsv.KindIssue, Unit: c.unit, PC: pc})
			obs.Emit(obsv.Event{Cycle: done, Kind: obsv.KindWriteback, Unit: c.unit, PC: pc})
			obs.Emit(obsv.Event{Cycle: retire, Kind: obsv.KindCommit, Unit: c.unit,
				PC: pc, Addr: ex.MemAddr, Val: retire - start})
			if steps&(obsSampleInterval-1) == 0 {
				c.emitOccupancy(obs, dispatch)
			}
		}
	}
	if !c.cpu.Halted && c.stats.Retired >= cfg.MaxInstructions {
		return false, diagerr.Wrap(diagerr.ErrMaxInstructions,
			"ooo: instruction cap %d reached before halt", cfg.MaxInstructions)
	}
	return !c.cpu.Halted, nil
}

// emitOccupancy reports how many ROB/IQ/LSQ entries are still in flight
// at the dispatch cycle: a ring slot whose completion time lies in the
// future holds a live instruction, so the count of such slots is the
// structure's occupancy (the same convention the dispatch stalls use).
func (c *Core) emitOccupancy(obs obsv.Observer, now int64) {
	occ := func(ring []int64) int64 {
		var n int64
		for _, t := range ring {
			if t > now {
				n++
			}
		}
		return n
	}
	obs.Emit(obsv.Event{Cycle: now, Kind: obsv.KindROBOccupancy, Unit: c.unit, Val: occ(c.retireAt)})
	obs.Emit(obsv.Event{Cycle: now, Kind: obsv.KindIQOccupancy, Unit: c.unit, Val: occ(c.issueTimes)})
	obs.Emit(obsv.Event{Cycle: now, Kind: obsv.KindLSQOccupancy, Unit: c.unit, Val: occ(c.lsqTimes)})
}

// resolveControl models prediction and redirects for the branch/jump that
// just executed (resolution time = done).
func (c *Core) resolveControl(pc uint32, ex iss.Exec, done int64) {
	in := ex.Inst
	refill := int64(c.cfg.FrontendDepth)
	mispredict := false

	switch {
	case in.Op.IsBranch():
		c.stats.Branches++
		predTaken := c.pred.Predict(pc)
		c.pred.Update(pc, ex.Taken)
		if predTaken != ex.Taken {
			mispredict = true
		} else if ex.Taken {
			// Correct taken prediction still needs the target from the BTB.
			if tgt, ok := c.btb.Lookup(pc); !ok || tgt != ex.NextPC {
				c.stats.BTBMisses++
				mispredict = true
			}
		}
		c.btb.Insert(pc, ex.NextPC)
	case in.Op == isa.OpJAL:
		// Direct jump: target computable at decode; BTB miss costs the
		// decode stages only.
		if in.Rd == isa.RA {
			c.ras.Push(pc + 4)
		}
		if _, ok := c.btb.Lookup(pc); !ok {
			c.stats.BTBMisses++
			c.fetchBubble(c.fetchCycle + 2)
		}
		c.btb.Insert(pc, ex.NextPC)
	case in.Op == isa.OpJALR:
		// Returns predicted by the RAS; other indirect jumps by the BTB.
		predicted := uint32(0)
		havePred := false
		if in.Rs1 == isa.RA && in.Rd == isa.Zero {
			if t, ok := c.ras.Pop(); ok {
				predicted, havePred = t, true
			}
		} else if t, ok := c.btb.Lookup(pc); ok {
			predicted, havePred = t, true
		}
		if in.Rd == isa.RA {
			c.ras.Push(pc + 4)
		}
		if !havePred || predicted != ex.NextPC {
			mispredict = true
		}
		c.btb.Insert(pc, ex.NextPC)
	}

	if mispredict {
		c.stats.Mispredicts++
		// Squash: the frontend restarts after resolution plus refill.
		c.fetchBubble(done + refill)
		// Wrong-path fetch energy estimate: the frontend ran from the
		// branch's fetch until resolution.
		c.stats.FetchedInsts += uint64(c.cfg.FetchWidth)
		if c.obs != nil {
			c.obs.Emit(obsv.Event{Cycle: done, Kind: obsv.KindMispredict,
				Unit: c.unit, PC: pc, Addr: ex.NextPC})
			c.obs.Emit(obsv.Event{Cycle: done + refill, Kind: obsv.KindFlush,
				Unit: c.unit, PC: pc, Val: refill})
		}
	}
}

// fetchBubble pushes the next fetch group to at least cycle t.
func (c *Core) fetchBubble(t int64) {
	if t > c.fetchCycle {
		c.fetchCycle = t
		c.fetchInGrp = 0
	}
}

// next advances ring index i of a ring of n slots by compare-and-reset,
// keeping the divide of a % off the per-instruction path.
func next(i, n int) int {
	if i++; i == n {
		return 0
	}
	return i
}

// pushStore records an in-flight store for forwarding. The window is a
// fixed ring sized LSQSize: the newest store overwrites the oldest, so
// steady-state execution never reslices or reallocates. The store also
// becomes the newest entry of its index slot.
func (c *Core) pushStore(addr uint32, ready int64) {
	a := addr &^ 3
	c.storeWindow[c.storeHead] = lsqEntry{addr: a, size: 4, ready: ready}
	c.storeHead = next(c.storeHead, len(c.storeWindow))
	if c.storeLen < len(c.storeWindow) {
		c.storeLen++
	}
	c.indexStore(a)
}

// indexStore numbers the newest store, to word a, and makes it the
// entry of a's index slot.
func (c *Core) indexStore(a uint32) {
	c.storeSeq++
	c.storeIndex[(a>>2)&c.indexMask] = lastStore{word: a, seq: c.storeSeq}
}

// forward finds the youngest in-flight store to addr's word (as in
// hardware, the newest matching store forwards) and returns when its
// data is ready. The index answers exactly what a newest-first scan of
// the window would: its slot holds the newest store to any word mapping
// there, and that store is in the window iff it is one of the last
// storeLen stores. A slot outside the window means no windowed store
// maps there, so the load misses; a windowed slot for the same word is
// the newest store to that word. Only a windowed slot for another word
// (a collision) hides older candidates and falls back to the scan.
func (c *Core) forward(addr uint32) (int64, bool) {
	a := addr &^ 3
	e := c.storeIndex[(a>>2)&c.indexMask]
	age := c.storeSeq - e.seq // 0 = the newest store
	if age >= uint64(c.storeLen) {
		return 0, false
	}
	if e.word != a {
		return c.scanStores(a)
	}
	i := c.storeHead - 1 - int(age)
	if i < 0 {
		i += len(c.storeWindow)
	}
	return c.storeWindow[i].ready, true
}

// scanStores searches the window newest first for a store to word a.
func (c *Core) scanStores(a uint32) (int64, bool) {
	i := c.storeHead
	for k := 0; k < c.storeLen; k++ {
		if i == 0 {
			i = len(c.storeWindow)
		}
		i--
		if c.storeWindow[i].addr == a {
			return c.storeWindow[i].ready, true
		}
	}
	return 0, false
}

// rebuildStoreIndex derives the index from the window by replaying its
// stores oldest to newest, as pushStore saw them. Numbering restarts at
// 1, so storeSeq ends at storeLen and a slot no store wrote (seq 0,
// which reads as word 0) stays outside the window.
func (c *Core) rebuildStoreIndex() {
	clear(c.storeIndex)
	c.storeSeq = 0
	i := c.storeHead - c.storeLen
	if i < 0 {
		i += len(c.storeWindow)
	}
	for k := 0; k < c.storeLen; k++ {
		c.indexStore(c.storeWindow[i].addr)
		i = next(i, len(c.storeWindow))
	}
}
