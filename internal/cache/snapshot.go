package cache

import (
	"fmt"
	"slices"
)

// State is a serializable copy of a Cache's timing state: every way of
// every set in set-major order (zero ways for pages never allocated),
// per-bank occupancy, the LRU tick, and the statistics counters.
// Geometry is not part of the state — restore targets are built from
// the same static Config and SetState validates the lengths against it.
// Field order is diag-snap/v1: a new or moved field needs a schema bump.
type State struct {
	Ways      []WayState // len = sets * assoc, set-major
	BusyUntil []int64    // per bank
	LastReq   []int64    // per bank
	UseClock  int64
	Stats     Stats
}

// WayState is one cache way.
// Field order is diag-snap/v1: a new or moved field needs a schema bump.
type WayState struct {
	Tag     uint32
	Valid   bool
	Dirty   bool
	LastUse int64
}

// State captures the cache's timing state.
func (c *Cache) State() State {
	st := State{
		Ways:      make([]WayState, len(c.pages)*c.pageWays),
		BusyUntil: append([]int64(nil), c.busyUntil...),
		LastReq:   append([]int64(nil), c.lastReq...),
		UseClock:  c.useClock,
		Stats:     c.Stats,
	}
	for i, p := range c.pages {
		ws := st.Ways[i*c.pageWays:]
		for j, w := range p {
			ws[j] = WayState{Tag: w.tag, Valid: w.valid, Dirty: w.dirty, LastUse: w.lastUse}
		}
	}
	return st
}

// SetState restores a previously captured State into c. It fails, with
// c unchanged, when st's shape does not match c's geometry. Only pages
// holding a non-zero way are allocated; the rest are dropped.
func (c *Cache) SetState(st *State) error {
	if len(st.Ways) != len(c.pages)*c.pageWays {
		return fmt.Errorf("cache %s: state has %d ways, geometry needs %d",
			c.cfg.Name, len(st.Ways), len(c.pages)*c.pageWays)
	}
	if len(st.BusyUntil) != len(c.busyUntil) || len(st.LastReq) != len(c.lastReq) {
		return fmt.Errorf("cache %s: state has %d/%d banks, geometry needs %d",
			c.cfg.Name, len(st.BusyUntil), len(st.LastReq), len(c.busyUntil))
	}
	for i := range c.pages {
		ws := st.Ways[i*c.pageWays : (i+1)*c.pageWays]
		if !slices.ContainsFunc(ws, func(w WayState) bool { return w != WayState{} }) {
			c.pages[i] = nil
			continue
		}
		if c.pages[i] == nil {
			c.pages[i] = make([]way, c.pageWays)
		}
		for j, w := range ws {
			c.pages[i][j] = way{tag: w.Tag, valid: w.Valid, dirty: w.Dirty, lastUse: w.LastUse}
		}
	}
	copy(c.busyUntil, st.BusyUntil)
	copy(c.lastReq, st.LastReq)
	c.useClock = st.UseClock
	c.Stats = st.Stats
	return nil
}
