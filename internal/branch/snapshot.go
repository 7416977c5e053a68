package branch

import "fmt"

// TournamentState is a serializable copy of a Tournament predictor:
// both component tables, the chooser, and the gshare global history.
// Table sizes are fixed by the predictor's construction parameters and
// validated on restore.
// Field order is diag-snap/v1: a new or moved field needs a schema bump.
type TournamentState struct {
	Bimodal []uint8
	GShare  []uint8
	History uint32
	Chooser []uint8
}

// State captures the predictor's training state.
func (t *Tournament) State() TournamentState {
	st := TournamentState{
		Bimodal: make([]uint8, len(t.bimodal.table)),
		GShare:  make([]uint8, len(t.gshare.table)),
		History: t.gshare.history,
		Chooser: make([]uint8, len(t.chooser)),
	}
	for i, c := range t.bimodal.table {
		st.Bimodal[i] = uint8(c)
	}
	for i, c := range t.gshare.table {
		st.GShare[i] = uint8(c)
	}
	for i, c := range t.chooser {
		st.Chooser[i] = uint8(c)
	}
	return st
}

// SetState restores a previously captured TournamentState. It fails,
// with t unchanged, when the table sizes do not match.
func (t *Tournament) SetState(st *TournamentState) error {
	if len(st.Bimodal) != len(t.bimodal.table) || len(st.GShare) != len(t.gshare.table) ||
		len(st.Chooser) != len(t.chooser) {
		return fmt.Errorf("branch: tournament state tables %d/%d/%d do not match geometry %d/%d/%d",
			len(st.Bimodal), len(st.GShare), len(st.Chooser),
			len(t.bimodal.table), len(t.gshare.table), len(t.chooser))
	}
	for i, c := range st.Bimodal {
		t.bimodal.table[i] = counter(c)
	}
	for i, c := range st.GShare {
		t.gshare.table[i] = counter(c)
	}
	t.gshare.history = st.History
	for i, c := range st.Chooser {
		t.chooser[i] = counter(c)
	}
	return nil
}

// BTBState is a serializable copy of a BTB.
// Field order is diag-snap/v1: a new or moved field needs a schema bump.
type BTBState struct {
	Tags    []uint32
	Targets []uint32
	Valid   []bool
}

// State captures the BTB contents.
func (b *BTB) State() BTBState {
	return BTBState{
		Tags:    append([]uint32(nil), b.tags...),
		Targets: append([]uint32(nil), b.targets...),
		Valid:   append([]bool(nil), b.valid...),
	}
}

// SetState restores a previously captured BTBState. It fails, with b
// unchanged, when the entry counts do not match.
func (b *BTB) SetState(st *BTBState) error {
	if len(st.Tags) != len(b.tags) || len(st.Targets) != len(b.targets) || len(st.Valid) != len(b.valid) {
		return fmt.Errorf("branch: BTB state has %d entries, geometry needs %d", len(st.Tags), len(b.tags))
	}
	copy(b.tags, st.Tags)
	copy(b.targets, st.Targets)
	copy(b.valid, st.Valid)
	return nil
}

// RASState is a serializable copy of a return-address stack.
// Field order is diag-snap/v1: a new or moved field needs a schema bump.
type RASState struct {
	Stack []uint32
	Top   int
	Depth int
}

// State captures the RAS contents.
func (r *RAS) State() RASState {
	return RASState{Stack: append([]uint32(nil), r.stack...), Top: r.top, Depth: r.depth}
}

// SetState restores a previously captured RASState. It fails, with r
// unchanged, when the depth or the top/depth indices are out of range.
func (r *RAS) SetState(st *RASState) error {
	if len(st.Stack) != len(r.stack) {
		return fmt.Errorf("branch: RAS state has %d entries, geometry needs %d", len(st.Stack), len(r.stack))
	}
	if st.Top < 0 || st.Top >= len(r.stack) || st.Depth < 0 || st.Depth > len(r.stack) {
		return fmt.Errorf("branch: RAS state top %d / depth %d out of range for %d entries",
			st.Top, st.Depth, len(r.stack))
	}
	copy(r.stack, st.Stack)
	r.top = st.Top
	r.depth = st.Depth
	return nil
}
