package mem

import "sort"

// State is a deep, serializable copy of a Memory, produced by
// Memory.State and rebuilt by NewFromState. Pages appear in ascending
// address order and all-zero pages are dropped, so two memories with
// identical contents always produce identical States — the property
// the snapshot codec's byte-identical round-trip relies on. Dropping
// zero pages is invisible to Digest, which hashes all-zero pages like
// never-touched ones.
// Field order is diag-snap/v1: a new or moved field needs a schema bump.
type State struct {
	CodeLo, CodeHi uint32
	CodeGen        uint64
	Pages          []PageState
}

// PageState is one non-zero page of a memory State.
// Field order is diag-snap/v1: a new or moved field needs a schema bump.
type PageState struct {
	Index uint32 // page number: the base address is Index * PageSize
	Data  [PageSize]byte
}

// State captures the memory's full contents and code-write tracking.
func (m *Memory) State() State {
	st := State{CodeLo: m.codeLo, CodeHi: m.codeHi, CodeGen: m.codeGen}
	idxs := make([]uint32, 0, len(m.pages))
	for idx, p := range m.pages {
		zero := true
		for _, b := range p {
			if b != 0 {
				zero = false
				break
			}
		}
		if !zero {
			idxs = append(idxs, idx)
		}
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	st.Pages = make([]PageState, len(idxs))
	for i, idx := range idxs {
		st.Pages[i].Index = idx
		st.Pages[i].Data = *m.pages[idx]
	}
	return st
}

// NewFromState rebuilds a Memory from st. The result is independent of
// st (pages are copied) and Digests identically to the memory st was
// captured from.
func NewFromState(st *State) *Memory {
	m := New()
	m.codeLo, m.codeHi, m.codeGen = st.CodeLo, st.CodeHi, st.CodeGen
	for i := range st.Pages {
		p := new([PageSize]byte)
		*p = st.Pages[i].Data
		m.pages[st.Pages[i].Index] = p
	}
	return m
}
