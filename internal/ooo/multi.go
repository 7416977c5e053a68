package ooo

import (
	"diag/internal/cache"
	"diag/internal/mem"
	"diag/internal/multi"
)

// Machine is the complete baseline: Cores out-of-order cores above a
// shared L2 and DRAM. Multicore runs use the same engine as the DiAG
// machine (internal/multi): each core's thread id is in tp (x4) and the
// thread count in gp (x3), and cores pause, resume, shard, and snapshot
// exactly as rings do.
type Machine struct {
	*multi.Machine[Config, CoreState, *Core]
}

// buildMachine wires the cache hierarchy and cores above an
// already-populated memory; cfg must have defaults applied and be
// validated.
func buildMachine(cfg Config, m *mem.Memory, entry uint32) *Machine {
	return &Machine{multi.New(multi.Names{Pkg: "ooo", Unit: "core"}, m, cfg.Cores, cfg.L2Size, cfg.DRAMLatency,
		func(i int, shared cache.Port) *Core {
			c := newCore(cfg, m, entry, shared)
			c.unit = int32(i)
			return c
		})}
}

// NewMachine builds and loads a machine for img.
func NewMachine(cfg Config, img *mem.Image) (*Machine, error) {
	cfg.setDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := mem.New()
	entry, err := img.Load(m)
	if err != nil {
		return nil, err
	}
	return buildMachine(cfg, m, entry), nil
}

// Core returns core i.
func (m *Machine) Core(i int) *Core { return m.Unit(i) }

// Stats aggregates the machine's statistics on demand: the merge over
// all cores plus the shared L2 and DRAM counters. Valid at any point —
// after Run, at a RunUntil pause, or mid-construction (all zeros).
func (m *Machine) Stats() Stats {
	var s Stats
	for i := 0; i < m.Units(); i++ {
		s.Merge(m.Core(i).Stats())
	}
	s.L2.Add(m.L2Stats())
	s.DRAMAccesses += m.DRAMAccesses()
	return s
}

// RunImage builds a machine, runs it, and returns stats and final memory.
func RunImage(cfg Config, img *mem.Image) (Stats, *mem.Memory, error) {
	mach, err := NewMachine(cfg, img)
	if err != nil {
		return Stats{}, nil, err
	}
	if err := mach.Run(); err != nil {
		return Stats{}, nil, err
	}
	return mach.Stats(), mach.Mem(), nil
}
