package diag

import (
	"fmt"

	"diag/internal/cache"
	"diag/internal/isa"
	"diag/internal/iss"
	"diag/internal/mem"
	"diag/internal/multi"
)

// This file captures and restores full-machine state for deterministic
// checkpoint/restore (internal/snap). Everything the ring's future
// timing or architecture depends on is in RingState; the only fields
// not carried are host-side accelerations that rebuild with identical
// behaviour: the cluster lookup hints (lastCi and nextCi, re-validated
// before every use), the loaded-cluster index list (recomputed from the
// cluster array), the lane segment table and hoisted geometry (derived
// from the configuration), and the ISS predecode cache
// (generation-tagged, see iss.CPUState).

// ClusterState is one processing cluster's load state.
// Field order is diag-snap/v1: a new or moved field needs a schema bump.
type ClusterState struct {
	Base    uint32
	Loaded  bool
	ReadyAt int64
	LastUse int64
	BusyTo  int64
}

// OperandState is one register lane's producer record.
// Field order is diag-snap/v1: a new or moved field needs a schema bump.
type OperandState struct {
	Ready  int64
	Pos    int
	IsLoad bool
}

// StrideEntryState is one PE's stride-prefetch training state.
// Field order is diag-snap/v1: a new or moved field needs a schema bump.
type StrideEntryState struct {
	LastAddr uint32
	Stride   int32
	Valid    bool
	Trained  bool
}

// SpecTargetState is one speculative-datapath table entry.
// Field order is diag-snap/v1: a new or moved field needs a schema bump.
type SpecTargetState struct {
	Tag  uint32
	Line uint32
}

// RingState is a serializable copy of one ring's complete state.
// Field order is diag-snap/v1: a new or moved field needs a schema bump.
type RingState struct {
	CPU      iss.CPUState
	Watchdog iss.WatchdogState

	Disabled []bool

	ICache   cache.State
	MemLanes cache.State
	L1D      cache.State

	Clusters    []ClusterState
	PEFree      []int64
	IntSrc      [isa.NumRegs]OperandState
	FPSrc       [isa.NumRegs]OperandState
	Strides     []StrideEntryState
	FPUs        [][]int64
	SpecTargets []SpecTargetState

	Now           int64
	PrevRetire    int64
	RedirectReady int64
	BusFreeAt     int64
	Steps         uint64

	Stats Stats
}

// State captures the ring's complete state.
func (r *Ring) State() RingState {
	st := RingState{
		CPU:      r.cpu.State(),
		Watchdog: r.watchdog.State(),
		Disabled: append([]bool(nil), r.disabled...),
		ICache:   r.icache.State(),
		MemLanes: r.memlanes.State(),
		L1D:      r.l1d.State(),
		Clusters: make([]ClusterState, len(r.clusters)),
		PEFree:   append([]int64(nil), r.peFree...),
		Strides:  make([]StrideEntryState, len(r.strides)),

		Now:           r.now,
		PrevRetire:    r.prevRetire,
		RedirectReady: r.redirectReady,
		BusFreeAt:     r.busFreeAt,
		Steps:         r.steps,
		Stats:         r.stats,
	}
	for i, c := range r.clusters {
		st.Clusters[i] = ClusterState{Base: c.base, Loaded: c.loaded, ReadyAt: c.readyAt, LastUse: c.lastUse, BusyTo: c.busyTo}
	}
	for i, s := range r.intSrc {
		st.IntSrc[i] = OperandState{Ready: s.ready, Pos: s.pos, IsLoad: s.isLoad}
	}
	for i, s := range r.fpSrc {
		st.FPSrc[i] = OperandState{Ready: s.ready, Pos: s.pos, IsLoad: s.isLoad}
	}
	for i, s := range r.strides {
		st.Strides[i] = StrideEntryState{LastAddr: s.lastAddr, Stride: s.stride, Valid: s.valid, Trained: s.trained}
	}
	if r.fpus != nil {
		st.FPUs = make([][]int64, len(r.fpus))
		for i, p := range r.fpus {
			st.FPUs[i] = append([]int64(nil), p...)
		}
	}
	if r.specTargets != nil {
		st.SpecTargets = make([]SpecTargetState, len(r.specTargets))
		for i, t := range r.specTargets {
			st.SpecTargets[i] = SpecTargetState{Tag: t.tag, Line: t.line}
		}
	}
	return st
}

// SetState restores a previously captured RingState into a freshly
// constructed ring of the same configuration. It fails when st's shape
// does not match the ring's geometry; the ring may be partially
// modified on failure and must be discarded.
func (r *Ring) SetState(st *RingState) error {
	switch {
	case len(st.Disabled) != len(r.disabled):
		return fmt.Errorf("diag: state has %d cluster-disable flags, config needs %d", len(st.Disabled), len(r.disabled))
	case len(st.Clusters) != len(r.clusters):
		return fmt.Errorf("diag: state has %d clusters, config needs %d", len(st.Clusters), len(r.clusters))
	case len(st.PEFree) != len(r.peFree):
		return fmt.Errorf("diag: state has %d PE slots, config needs %d", len(st.PEFree), len(r.peFree))
	case len(st.Strides) != len(r.strides):
		return fmt.Errorf("diag: state has %d stride entries, config needs %d", len(st.Strides), len(r.strides))
	case len(st.FPUs) != len(r.fpus):
		return fmt.Errorf("diag: state has %d FPU pools, config needs %d", len(st.FPUs), len(r.fpus))
	case len(st.SpecTargets) != len(r.specTargets):
		return fmt.Errorf("diag: state has %d spec targets, config needs %d", len(st.SpecTargets), len(r.specTargets))
	}
	for i, p := range st.FPUs {
		if len(p) != len(r.fpus[i]) {
			return fmt.Errorf("diag: state FPU pool %d has %d units, config needs %d", i, len(p), len(r.fpus[i]))
		}
	}
	for i := range st.IntSrc {
		for _, s := range [...]OperandState{st.IntSrc[i], st.FPSrc[i]} {
			if s.Pos < -1 || s.Pos >= len(r.peFree) {
				return fmt.Errorf("diag: state register lane %d names producer position %d of %d", i, s.Pos, len(r.peFree))
			}
		}
	}
	r.cpu.SetState(&st.CPU)
	if err := r.watchdog.SetState(&st.Watchdog); err != nil {
		return err
	}
	copy(r.disabled, st.Disabled)
	if err := r.icache.SetState(&st.ICache); err != nil {
		return err
	}
	if err := r.memlanes.SetState(&st.MemLanes); err != nil {
		return err
	}
	if err := r.l1d.SetState(&st.L1D); err != nil {
		return err
	}
	r.enabled = 0
	for _, d := range r.disabled {
		if !d {
			r.enabled++
		}
	}
	r.loaded = r.loaded[:0]
	for i, c := range st.Clusters {
		r.clusters[i] = clusterState{base: c.Base, loaded: c.Loaded, readyAt: c.ReadyAt, lastUse: c.LastUse, busyTo: c.BusyTo}
		if c.Loaded {
			r.loaded = append(r.loaded, i)
		}
	}
	r.lastCi, r.nextCi = -1, -1
	copy(r.peFree, st.PEFree)
	for i, s := range st.IntSrc {
		r.intSrc[i] = operandSrc{ready: s.Ready, pos: s.Pos, isLoad: s.IsLoad}
	}
	for i, s := range st.FPSrc {
		r.fpSrc[i] = operandSrc{ready: s.Ready, pos: s.Pos, isLoad: s.IsLoad}
	}
	for i, s := range st.Strides {
		r.strides[i] = strideState{lastAddr: s.LastAddr, stride: s.Stride, valid: s.Valid, trained: s.Trained}
	}
	for i, p := range st.FPUs {
		copy(r.fpus[i], p)
	}
	for i, t := range st.SpecTargets {
		r.specTargets[i] = specTarget{tag: t.Tag, line: t.Line}
	}
	r.now = st.Now
	r.prevRetire = st.PrevRetire
	r.redirectReady = st.RedirectReady
	r.busFreeAt = st.BusFreeAt
	r.steps = st.Steps
	r.stats = st.Stats
	return nil
}

// MachineState is a serializable copy of a complete DiAG machine:
// configuration, memory, every ring, the shared L2 partitions, the DRAM
// access counter, and the next-ring cursor.
type MachineState = multi.State[Config, RingState]

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
