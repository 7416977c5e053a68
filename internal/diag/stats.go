package diag

import "diag/internal/cache"

// StallKind classifies why an instruction's start was delayed (§7.3.2).
type StallKind int

// Stall sources, matching the paper's taxonomy.
const (
	StallNone    StallKind = iota
	StallMemory            // cache misses, LSU queue, bus: §7.3.2 bullet 1
	StallControl           // flush + line reload after control flow change
	StallOther             // structural: bus busy, no free cluster, PE busy
)

func (k StallKind) String() string {
	switch k {
	case StallMemory:
		return "memory"
	case StallControl:
		return "control"
	case StallOther:
		return "other"
	}
	return "none"
}

// Stats aggregates one ring's (or one machine's) execution counters.
// Field order is diag-snap/v1: a new or moved field needs a schema bump.
type Stats struct {
	Cycles  int64
	Retired uint64

	// ClusterCycles integrates active clusters over time: Σ Δt × (number
	// of clusters recently in use). The power model charges register-lane
	// and control static power per active cluster-cycle — dormant
	// clusters are dark silicon (§5.3, §7.1).
	ClusterCycles int64

	// Stall attribution: cycles of start-delay per source instruction,
	// counted at the source only (dependent instructions excluded),
	// matching §7.3.2.
	StallCycles [4]int64

	// Datapath reuse (§4.3.2).
	LinesFetched  uint64 // I-lines loaded into clusters
	ReuseHits     uint64 // backward branches that landed in the window
	ReuseMisses   uint64 // backward branches that forced a reload
	TakenBranches uint64
	Redirects     uint64 // all PC redirects (taken branches + jumps)

	// Component activity (consumed by internal/power).
	PEBusyCycles  int64  // Σ execute-stage occupancy across PEs
	FPUBusyCycles int64  // subset of the above on the FPU
	ALUOps        uint64 // integer ALU operations executed
	FPOps         uint64
	LaneWrites    uint64 // register-lane write (rd-producing instructions)
	MemOps        uint64
	Loads         uint64
	Stores        uint64

	// Extension activity (extensions.go).
	StridePrefetches uint64
	SpecDatapathHits uint64

	// SIMT thread pipelining (§4.4).
	SIMTRegions   uint64
	SIMTThreads   uint64
	SIMTPipelined uint64 // threads that ran through the pipeline
	SIMTRejects   uint64 // regions that fell back to sequential execution

	// Cache statistics snapshots (filled in at the end of a run).
	L1I, L1D, L2, MemLanes cache.Stats
	DRAMAccesses           uint64
}

// IPC returns retired instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Retired) / float64(s.Cycles)
}

// StallShare returns the fraction of attributed stall cycles caused by k.
func (s Stats) StallShare(k StallKind) float64 {
	total := s.StallCycles[StallMemory] + s.StallCycles[StallControl] + s.StallCycles[StallOther]
	if total == 0 {
		return 0
	}
	return float64(s.StallCycles[k]) / float64(total)
}

// Merge accumulates other into s (used to combine rings).
func (s *Stats) Merge(o Stats) {
	if o.Cycles > s.Cycles {
		s.Cycles = o.Cycles
	}
	s.Retired += o.Retired
	s.ClusterCycles += o.ClusterCycles
	for i := range s.StallCycles {
		s.StallCycles[i] += o.StallCycles[i]
	}
	s.LinesFetched += o.LinesFetched
	s.ReuseHits += o.ReuseHits
	s.ReuseMisses += o.ReuseMisses
	s.TakenBranches += o.TakenBranches
	s.Redirects += o.Redirects
	s.PEBusyCycles += o.PEBusyCycles
	s.FPUBusyCycles += o.FPUBusyCycles
	s.ALUOps += o.ALUOps
	s.FPOps += o.FPOps
	s.LaneWrites += o.LaneWrites
	s.MemOps += o.MemOps
	s.Loads += o.Loads
	s.Stores += o.Stores
	s.StridePrefetches += o.StridePrefetches
	s.SpecDatapathHits += o.SpecDatapathHits
	s.SIMTRegions += o.SIMTRegions
	s.SIMTThreads += o.SIMTThreads
	s.SIMTPipelined += o.SIMTPipelined
	s.SIMTRejects += o.SIMTRejects
	s.L1I.Add(o.L1I)
	s.L1D.Add(o.L1D)
	s.L2.Add(o.L2)
	s.MemLanes.Add(o.MemLanes)
	s.DRAMAccesses += o.DRAMAccesses
}
