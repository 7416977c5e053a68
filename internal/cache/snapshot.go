package cache

import "fmt"

// State is a serializable copy of a Cache's timing state: every way of
// every set (in set-major order over the flat backing array), per-bank
// occupancy, the LRU tick, and the statistics counters. Geometry is not
// part of the state — restore targets are built from the same static
// Config and SetState validates the lengths against it.
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
		Ways:      make([]WayState, 0, len(c.sets)*c.cfg.Assoc),
		BusyUntil: append([]int64(nil), c.busyUntil...),
		LastReq:   append([]int64(nil), c.lastReq...),
		UseClock:  c.useClock,
		Stats:     c.Stats,
	}
	for _, set := range c.sets {
		for _, w := range set {
			st.Ways = append(st.Ways, WayState{Tag: w.tag, Valid: w.valid, Dirty: w.dirty, LastUse: w.lastUse})
		}
	}
	return st
}

// SetState restores a previously captured State into c. It fails, with
// c unchanged, when st's shape does not match c's geometry.
func (c *Cache) SetState(st *State) error {
	if len(st.Ways) != len(c.sets)*c.cfg.Assoc {
		return fmt.Errorf("cache %s: state has %d ways, geometry needs %d",
			c.cfg.Name, len(st.Ways), len(c.sets)*c.cfg.Assoc)
	}
	if len(st.BusyUntil) != len(c.busyUntil) || len(st.LastReq) != len(c.lastReq) {
		return fmt.Errorf("cache %s: state has %d/%d banks, geometry needs %d",
			c.cfg.Name, len(st.BusyUntil), len(st.LastReq), len(c.busyUntil))
	}
	k := 0
	for i := range c.sets {
		for j := range c.sets[i] {
			w := st.Ways[k]
			c.sets[i][j] = way{tag: w.Tag, valid: w.Valid, dirty: w.Dirty, lastUse: w.LastUse}
			k++
		}
	}
	copy(c.busyUntil, st.BusyUntil)
	copy(c.lastReq, st.LastReq)
	c.useClock = st.UseClock
	c.Stats = st.Stats
	return nil
}
