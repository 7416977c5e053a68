package diag

import (
	"diag/internal/cache"
	"diag/internal/mem"
	"diag/internal/multi"
)

// Machine is a complete DiAG processor: one or more dataflow rings above
// a shared L2 and DRAM (§5.1). With Rings == 1 it runs a single thread;
// with Rings > 1 it exploits spatial parallelism, one thread per ring
// (§4.4: "multiple rows of processing clusters", used by the paper's
// 16-by-2 multi-thread configuration). The multi-ring policy — L2
// partitions, boot convention, pause/resume, sharding, snapshots — is
// the shared engine in internal/multi.
type Machine struct {
	*multi.Machine[Config, RingState, *Ring]
}

// buildMachine wires the cache hierarchy and rings above an
// already-populated memory; cfg must have defaults applied and be
// validated.
func buildMachine(cfg Config, m *mem.Memory, entry uint32) *Machine {
	return &Machine{multi.New(multi.Names{Pkg: "diag", Unit: "ring"}, m, cfg.Rings, cfg.L2Size, cfg.DRAMLatency,
		func(i int, shared cache.Port) *Ring {
			r := newRing(cfg, m, entry, shared)
			r.unit = int32(i)
			return r
		})}
}

// NewMachine builds a machine for the image. Multi-ring machines place
// the thread id in register tp (x4) and the thread count in gp (x3) of
// each ring's CPU before execution — the convention all parallel
// workloads in this repository follow.
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

// Ring returns ring i (for single-thread runs, Ring(0) is the whole
// machine).
func (m *Machine) Ring(i int) *Ring { return m.Unit(i) }

// Stats aggregates the machine's statistics on demand: the merge over
// all rings plus the shared L2 and DRAM counters. Valid at any point —
// after Run, at a RunUntil pause, or mid-construction (all zeros).
func (m *Machine) Stats() Stats {
	var s Stats
	for i := 0; i < m.Units(); i++ {
		s.Merge(m.Ring(i).Stats())
	}
	s.L2.Add(m.L2Stats())
	s.DRAMAccesses += m.DRAMAccesses()
	return s
}

// RunImage is the one-call convenience: build a machine, run it, return
// the stats and final memory.
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
