package ooo

import (
	"fmt"

	"diag/internal/branch"
	"diag/internal/cache"
	"diag/internal/isa"
	"diag/internal/iss"
	"diag/internal/mem"
	"diag/internal/multi"
)

// This file captures and restores full-machine state for deterministic
// checkpoint/restore (internal/snap). Everything the core's future
// timing or architecture depends on is in CoreState; pool pipelining
// flags and ring-buffer sizes come from the static configuration and
// are validated on restore.

// StoreEntryState is one in-flight store of the forwarding window.
// Field order is diag-snap/v1: a new or moved field needs a schema bump.
type StoreEntryState struct {
	Addr  uint32
	Size  uint32
	Ready int64
}

// CoreState is a serializable copy of one core's complete state.
// Field order is diag-snap/v1: a new or moved field needs a schema bump.
type CoreState struct {
	CPU      iss.CPUState
	Watchdog iss.WatchdogState

	ICache cache.State
	L1D    cache.State

	Pred branch.TournamentState
	BTB  branch.BTBState
	RAS  branch.RASState

	IntReady [isa.NumRegs]int64
	FPReady  [isa.NumRegs]int64

	ALUFreeAt    []int64
	MulDivFreeAt []int64
	FPFreeAt     []int64
	MemFreeAt    []int64

	RetireAt    []int64
	RetireHead  int
	IssueTimes  []int64
	IssueHead   int
	LSQTimes    []int64
	LSQHead     int
	StoreWindow []StoreEntryState
	StoreHead   int
	StoreLen    int

	FetchCycle  int64
	FetchInGrp  int
	PrevRetire  int64
	RetireInGrp int

	Steps uint64
	Now   int64
	Stats Stats
}

// State captures the core's complete state.
func (c *Core) State() CoreState {
	st := CoreState{
		CPU:      c.cpu.State(),
		Watchdog: c.watchdog.State(),
		ICache:   c.icache.State(),
		L1D:      c.l1d.State(),
		Pred:     c.pred.State(),
		BTB:      c.btb.State(),
		RAS:      c.ras.State(),
		IntReady: c.intReady,
		FPReady:  c.fpReady,

		ALUFreeAt:    append([]int64(nil), c.alu.freeAt...),
		MulDivFreeAt: append([]int64(nil), c.muldiv.freeAt...),
		FPFreeAt:     append([]int64(nil), c.fp.freeAt...),
		MemFreeAt:    append([]int64(nil), c.mp.freeAt...),

		RetireAt:    append([]int64(nil), c.retireAt...),
		RetireHead:  c.retireHead,
		IssueTimes:  append([]int64(nil), c.issueTimes...),
		IssueHead:   c.issueHead,
		LSQTimes:    append([]int64(nil), c.lsqTimes...),
		LSQHead:     c.lsqHead,
		StoreWindow: make([]StoreEntryState, len(c.storeWindow)),
		StoreHead:   c.storeHead,
		StoreLen:    c.storeLen,

		FetchCycle:  c.fetchCycle,
		FetchInGrp:  c.fetchInGrp,
		PrevRetire:  c.prevRetire,
		RetireInGrp: c.retireInGrp,

		Steps: c.steps,
		Now:   c.now,
		Stats: c.stats,
	}
	for i, e := range c.storeWindow {
		st.StoreWindow[i] = StoreEntryState{Addr: e.addr, Size: e.size, Ready: e.ready}
	}
	return st
}

// SetState restores a previously captured CoreState into a freshly
// constructed core of the same configuration. It fails when st's shape
// does not match the core's geometry; the core may be partially
// modified on failure and must be discarded.
func (c *Core) SetState(st *CoreState) error {
	switch {
	case len(st.ALUFreeAt) != len(c.alu.freeAt) || len(st.MulDivFreeAt) != len(c.muldiv.freeAt) ||
		len(st.FPFreeAt) != len(c.fp.freeAt) || len(st.MemFreeAt) != len(c.mp.freeAt):
		return fmt.Errorf("ooo: state FU pools %d/%d/%d/%d do not match config %d/%d/%d/%d",
			len(st.ALUFreeAt), len(st.MulDivFreeAt), len(st.FPFreeAt), len(st.MemFreeAt),
			len(c.alu.freeAt), len(c.muldiv.freeAt), len(c.fp.freeAt), len(c.mp.freeAt))
	case len(st.RetireAt) != len(c.retireAt):
		return fmt.Errorf("ooo: state ROB ring has %d entries, config needs %d", len(st.RetireAt), len(c.retireAt))
	case len(st.IssueTimes) != len(c.issueTimes):
		return fmt.Errorf("ooo: state IQ ring has %d entries, config needs %d", len(st.IssueTimes), len(c.issueTimes))
	case len(st.LSQTimes) != len(c.lsqTimes):
		return fmt.Errorf("ooo: state LSQ ring has %d entries, config needs %d", len(st.LSQTimes), len(c.lsqTimes))
	case len(st.StoreWindow) != len(c.storeWindow):
		return fmt.Errorf("ooo: state store window has %d entries, config needs %d", len(st.StoreWindow), len(c.storeWindow))
	case st.RetireHead < 0 || st.RetireHead >= len(c.retireAt):
		return fmt.Errorf("ooo: state ROB head %d out of range", st.RetireHead)
	case st.IssueHead < 0 || st.IssueHead >= len(c.issueTimes):
		return fmt.Errorf("ooo: state IQ head %d out of range", st.IssueHead)
	case st.LSQHead < 0 || st.LSQHead >= len(c.lsqTimes):
		return fmt.Errorf("ooo: state LSQ head %d out of range", st.LSQHead)
	case st.StoreHead < 0 || st.StoreHead >= len(c.storeWindow) ||
		st.StoreLen < 0 || st.StoreLen > len(c.storeWindow):
		return fmt.Errorf("ooo: state store head %d / len %d out of range", st.StoreHead, st.StoreLen)
	}
	c.cpu.SetState(&st.CPU)
	if err := c.watchdog.SetState(&st.Watchdog); err != nil {
		return err
	}
	if err := c.icache.SetState(&st.ICache); err != nil {
		return err
	}
	if err := c.l1d.SetState(&st.L1D); err != nil {
		return err
	}
	if err := c.pred.SetState(&st.Pred); err != nil {
		return err
	}
	if err := c.btb.SetState(&st.BTB); err != nil {
		return err
	}
	if err := c.ras.SetState(&st.RAS); err != nil {
		return err
	}
	c.intReady = st.IntReady
	c.fpReady = st.FPReady
	copy(c.alu.freeAt, st.ALUFreeAt)
	copy(c.muldiv.freeAt, st.MulDivFreeAt)
	copy(c.fp.freeAt, st.FPFreeAt)
	copy(c.mp.freeAt, st.MemFreeAt)
	copy(c.retireAt, st.RetireAt)
	c.retireHead = st.RetireHead
	copy(c.issueTimes, st.IssueTimes)
	c.issueHead = st.IssueHead
	copy(c.lsqTimes, st.LSQTimes)
	c.lsqHead = st.LSQHead
	for i, e := range st.StoreWindow {
		c.storeWindow[i] = lsqEntry{addr: e.Addr, size: e.Size, ready: e.Ready}
	}
	c.storeHead = st.StoreHead
	c.storeLen = st.StoreLen
	c.rebuildStoreIndex()
	c.fetchCycle = st.FetchCycle
	c.fetchInGrp = st.FetchInGrp
	c.prevRetire = st.PrevRetire
	c.retireInGrp = st.RetireInGrp
	c.steps = st.Steps
	c.now = st.Now
	c.stats = st.Stats
	return nil
}

// MachineState is a serializable copy of a complete baseline machine:
// configuration, memory, every core, the shared L2 partitions, the DRAM
// access counter, and the next-core cursor.
type MachineState = multi.State[Config, CoreState]

// NewMachineFromState rebuilds a machine from a previously captured
// state. The result is independent of st and continues execution
// exactly where the captured machine stopped: identical cycles,
// statistics, memory digest, and observer events.
func NewMachineFromState(st *MachineState) (*Machine, error) {
	cfg := st.Config
	cfg.setDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	mach := buildMachine(cfg, mem.NewFromState(&st.Mem), 0)
	if err := mach.Restore(st); err != nil {
		return nil, err
	}
	return mach, nil
}
