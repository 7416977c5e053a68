package iss

import (
	"encoding/binary"

	"diag/internal/isa"
	"diag/internal/wire"
)

// watchdogDepth is how many recent state snapshots a Watchdog retains.
// A state-identical loop whose period spans up to watchdogDepth sampling
// intervals is caught; longer-period runaways fall through to the
// instruction/cycle budgets instead.
const watchdogDepth = 64

// Watchdog is the retirement-progress detector the timing machines poll
// while they run: it samples the hart's full architectural state and
// reports a livelock when an identical state recurs.
//
// The detector is sound, not heuristic. The sampled snapshot covers
// everything the CPU's future depends on — PC, the integer and FP
// register files, the one-shot interrupt latch, and the count of stores
// executed so far (equal store counts between two snapshots mean memory
// is unchanged between them). The machines are deterministic, so an
// exact recurrence proves the program is in an infinite loop and will
// never halt: flagging it as stalled can never kill a run that would
// have terminated. Loops that do mutate state every iteration (e.g. a
// runaway counter) are not flagged; they exhaust the instruction or
// cycle budget instead, which is the correct classification for them.
type Watchdog struct {
	recent [watchdogDepth]uint64
	n, pos int
}

// Stalled samples the CPU and reports whether this exact architectural
// state has been seen at an earlier sample. Callers invoke it on a
// coarse cadence (every few thousand retired instructions); stores is
// the machine's running store count.
func (w *Watchdog) Stalled(c *CPU, stores uint64) bool {
	if c.InterruptAt != 0 && !c.Trapped {
		// A pending interrupt will redirect control later, so a state
		// recurrence now does not prove a livelock.
		return false
	}
	h := c.stateHash(stores)
	for i := 0; i < w.n; i++ {
		if w.recent[i] == h {
			return true
		}
	}
	w.recent[w.pos] = h
	w.pos = (w.pos + 1) % watchdogDepth
	if w.n < watchdogDepth {
		w.n++
	}
	return false
}

// stateHash folds the architectural state into one FNV-1a word.
// Instret is deliberately excluded (it always advances); stores stands
// in for the whole memory image, which only the hart's own stores can
// change in this single-writer model. Each word enters as 8
// little-endian bytes, gathered in a stack buffer so that sampling
// never allocates.
func (c *CPU) stateHash(stores uint64) uint64 {
	var buf [8 * (1 + 2*isa.NumRegs + 2)]byte
	b := buf[:0]
	b = binary.LittleEndian.AppendUint64(b, uint64(c.PC))
	for _, x := range c.X {
		b = binary.LittleEndian.AppendUint64(b, uint64(x))
	}
	for _, f := range c.F {
		b = binary.LittleEndian.AppendUint64(b, uint64(f))
	}
	b = binary.LittleEndian.AppendUint64(b, stores)
	if c.Trapped {
		b = binary.LittleEndian.AppendUint64(b, 1)
	}
	return wire.FNV1a(wire.FNVBasis, b)
}
