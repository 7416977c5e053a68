package iss

import (
	"fmt"

	"diag/internal/diagerr"
	"diag/internal/isa"
)

// CPUState is a serializable copy of a hart's architectural state.
//
// Three pieces of CPU state are deliberately excluded because they are
// pure host-side accelerations a restored CPU rebuilds on demand with
// no architectural or timing effect: the predecode cache and the
// superblock cache (entries of both are generation-tagged against
// Memory.CodeGen, so a cold cache re-decodes/re-traces to identical
// results — NoSuperblock is likewise a host knob, not machine state)
// and the simt.s step-register memo (relearned from the text on first
// touch). The abnormal-halt error is carried as
// its message: every abnormal halt is an ErrBadProgram, so the error
// chain is reconstructed exactly.
// Field order is diag-snap/v1: a new or moved field needs a schema bump.
type CPUState struct {
	PC      uint32
	X       [isa.NumRegs]uint32
	F       [isa.NumRegs]uint32
	Halted  bool
	ErrMsg  string // non-empty iff halted abnormally
	Instret uint64

	NoPredecode bool

	InterruptAt     uint64
	InterruptVector uint32
	EPC             uint32
	Trapped         bool
}

// State captures the CPU's architectural state.
func (c *CPU) State() CPUState {
	st := CPUState{
		PC:              c.PC,
		X:               c.X,
		F:               c.F,
		Halted:          c.Halted,
		Instret:         c.Instret,
		NoPredecode:     c.NoPredecode,
		InterruptAt:     c.InterruptAt,
		InterruptVector: c.InterruptVector,
		EPC:             c.EPC,
		Trapped:         c.Trapped,
	}
	if c.Err != nil {
		st.ErrMsg = c.Err.Error()
	}
	return st
}

// SetState restores a previously captured CPUState into c, keeping the
// CPU's memory and Hook. The predecode cache is left as is: entries are
// generation-tagged, so stale decodes can never be returned.
func (c *CPU) SetState(st *CPUState) {
	c.PC = st.PC
	c.X = st.X
	c.F = st.F
	c.Halted = st.Halted
	c.Err = nil
	if st.ErrMsg != "" {
		c.Err = diagerr.Wrap(diagerr.ErrBadProgram, "%s", st.ErrMsg)
	}
	c.Instret = st.Instret
	c.NoPredecode = st.NoPredecode
	c.InterruptAt = st.InterruptAt
	c.InterruptVector = st.InterruptVector
	c.EPC = st.EPC
	c.Trapped = st.Trapped
}

// WatchdogState is a serializable copy of a Watchdog's recent-state
// ring. The full fixed-depth ring is carried so a restored watchdog
// flags exactly the same recurrences the original would have.
// Field order is diag-snap/v1: a new or moved field needs a schema bump.
type WatchdogState struct {
	Recent [watchdogDepth]uint64
	N      int
	Pos    int
}

// State captures the watchdog's sample ring.
func (w *Watchdog) State() WatchdogState {
	return WatchdogState{Recent: w.recent, N: w.n, Pos: w.pos}
}

// SetState restores a previously captured WatchdogState. It fails, with
// w unchanged, when the indices are out of range.
func (w *Watchdog) SetState(st *WatchdogState) error {
	if st.N < 0 || st.N > watchdogDepth || st.Pos < 0 || st.Pos >= watchdogDepth {
		return fmt.Errorf("iss: watchdog state n %d / pos %d out of range (depth %d)", st.N, st.Pos, watchdogDepth)
	}
	w.recent = st.Recent
	w.n = st.N
	w.pos = st.Pos
	return nil
}
