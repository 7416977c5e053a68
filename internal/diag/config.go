// Package diag implements the DiAG machine model — the paper's primary
// contribution: a dataflow-inspired general-purpose processor built from
// processing clusters of PEs connected by register lanes (Wang & Kim,
// ASPLOS 2021).
//
// The model is execution-driven: architectural semantics come from the
// golden ISS (internal/iss), so every run is functionally exact, while a
// dataflow scoreboard computes cycle timing using the paper's structural
// rules:
//
//   - one instruction per PE, assigned in program order (§4.1);
//   - register lanes propagate values forward only, through a 2-input mux
//     per PE, with a pipeline buffer every 8 PEs and between clusters
//     (§6.1.2), so a dependent instruction k half-cluster hops downstream
//     sees its operand k cycles later;
//   - WAR/WAW hazards never stall (lanes are implicit renaming, §4.2);
//   - the PC lane retires instructions in order; taken branches disable
//     mismatched PEs and redirect (§4.3);
//   - a backward branch whose target is inside the loaded window reuses
//     the datapath: no fetch, no decode (§4.3.2); out-of-window targets
//     load a 64-byte I-line into the next free cluster over the shared
//     512-bit bus (§5.1.1, §5.1.3);
//   - loads/stores go through cluster-level memory lanes, then a banked
//     L1D and unified L2 (§5.2);
//   - simt.s/simt.e regions execute as thread pipelines with pipeline
//     registers between clusters (§4.4, §5.4).
package diag

import (
	"fmt"

	"diag/internal/cache"
)

// ISALevel selects which extensions the hardware supports.
type ISALevel int

// ISA levels of the paper's prototypes (Table 2).
const (
	RV32I   ISALevel = iota // integer only (I4C2 FPGA prototype)
	RV32IMF                 // integer + mul/div + single float
)

func (l ISALevel) String() string {
	if l == RV32I {
		return "RV32I"
	}
	return "RV32IMF"
}

// Config parameterizes one DiAG processor (paper Table 2 plus the timing
// constants of §5–§6).
// Field order is diag-snap/v1: a new or moved field needs a schema bump.
type Config struct {
	Name string
	ISA  ISALevel

	PEsPerCluster int // 16 in all paper configs: one 64-byte I-line
	Clusters      int // per ring when Rings > 1; total when Rings == 1
	Rings         int // independent dataflow rings (spatial parallelism)

	FreqMHz int // simulation frequency (paper: 2000)

	// Lane timing (§6.1.2): a register lane crosses LaneBufferEvery PEs
	// per cycle; each boundary adds one cycle of propagation delay.
	LaneBufferEvery int // default 8

	// Control timing.
	DecodeCycles   int // after a line lands in a cluster (default 1)
	BusCycles      int // shared 512-bit bus transfer (§5.1.3, default 2)
	RedirectCycles int // PC-lane restart on an in-window taken branch (default 1)

	// Memory hierarchy (Table 2).
	L1ISize      int
	L1DSize      int
	L1DBanks     int
	L2Size       int // bytes; 0 = default (4 MiB), NoL2 = no shared L2
	MemLaneLines int // cluster-level memory-lane entries (default 4)
	DRAMLatency  int // cycles (default 100)

	// MaxInstructions bounds a run (0 = default cap).
	MaxInstructions uint64

	// MaxCycles bounds a run's simulated cycle count (0 = unbounded).
	// Exceeding it fails the run with diagerr.ErrMaxCycles.
	MaxCycles int64

	// DisabledClusterMask marks clusters (bit i = cluster i) that are
	// fused off for degraded-mode operation: the control unit never
	// loads lines into them, and cluster reuse remaps around them. At
	// least two clusters must stay enabled (§4.3 alternation). A mask,
	// not a slice, so Config stays comparable.
	DisabledClusterMask uint64

	// Optional extensions (paper future work; see internal/diag/extensions.go).
	StridePrefetch       bool // §5.2: PE-local stride prefetch into memory lanes
	SharedFPUs           int  // §7.5: FPUs shared per cluster (0 = one per PE)
	SpeculativeDatapaths bool // §7.3.2: preconstruct taken-branch target datapaths
}

// NoL2 as Config.L2Size builds a machine without a shared L2: ring
// misses go straight to DRAM. The zero value still means "default
// 4 MiB" so existing configs keep their meaning; an explicit absent
// level needs a sentinel that survives setDefaults.
const NoL2 = -1

// Total PEs across the whole processor.
func (c Config) TotalPEs() int { return c.PEsPerCluster * c.Clusters * c.Rings }

// ClusterBytes is the instruction footprint of one cluster (one I-line).
func (c Config) ClusterBytes() uint32 { return uint32(c.PEsPerCluster * 4) }

func (c *Config) setDefaults() {
	if c.PEsPerCluster == 0 {
		c.PEsPerCluster = 16
	}
	if c.Clusters == 0 {
		c.Clusters = 2
	}
	if c.Rings == 0 {
		c.Rings = 1
	}
	if c.FreqMHz == 0 {
		c.FreqMHz = 2000
	}
	if c.LaneBufferEvery == 0 {
		c.LaneBufferEvery = 8
	}
	if c.DecodeCycles == 0 {
		c.DecodeCycles = 1
	}
	if c.BusCycles == 0 {
		c.BusCycles = 2
	}
	if c.RedirectCycles == 0 {
		c.RedirectCycles = 1
	}
	if c.L1ISize == 0 {
		c.L1ISize = 32 << 10
	}
	if c.L1DSize == 0 {
		c.L1DSize = 64 << 10
	}
	if c.L1DBanks == 0 {
		c.L1DBanks = 4
	}
	if c.L2Size == 0 {
		c.L2Size = 4 << 20
	}
	if c.MemLaneLines == 0 {
		c.MemLaneLines = 4
	}
	if c.DRAMLatency == 0 {
		c.DRAMLatency = 100
	}
	if c.MaxInstructions == 0 {
		c.MaxInstructions = 500_000_000
	}
}

// Validate checks structural requirements.
func (c Config) Validate() error {
	c.setDefaults()
	if c.PEsPerCluster <= 0 || c.PEsPerCluster%2 != 0 {
		return fmt.Errorf("diag: PEs per cluster %d invalid", c.PEsPerCluster)
	}
	if c.Clusters < 2 {
		return fmt.Errorf("diag: need at least 2 clusters to alternate (§4.3), got %d", c.Clusters)
	}
	if c.Rings < 1 {
		return fmt.Errorf("diag: rings %d invalid", c.Rings)
	}
	if n := c.EnabledClusters(); n < 2 {
		return fmt.Errorf("diag: disabled-cluster mask %#x leaves %d of %d clusters; need at least 2 to alternate (§4.3)",
			c.DisabledClusterMask, n, c.Clusters)
	}
	return nil
}

// EnabledClusters counts clusters per ring not fused off by
// DisabledClusterMask. Mask bits at or above Clusters are ignored.
func (c Config) EnabledClusters() int {
	c.setDefaults()
	n := 0
	for i := 0; i < c.Clusters && i < 64; i++ {
		if c.DisabledClusterMask&(1<<uint(i)) == 0 {
			n++
		}
	}
	if c.Clusters > 64 {
		n += c.Clusters - 64 // mask can only name the first 64
	}
	return n
}

// Paper Table 2 configurations.

// Table2Configs returns the paper's Table 2 configurations in the
// table's order: I4C2, F4C2, F4C16, F4C32. It is the one list every
// tool that names or labels a paper design point iterates.
func Table2Configs() []Config { return []Config{I4C2(), F4C2(), F4C16(), F4C32()} }

// I4C2 is the integer-only FPGA proof-of-concept: 2 clusters, 32 PEs,
// 100 MHz.
func I4C2() Config {
	c := Config{
		Name: "I4C2", ISA: RV32I,
		Clusters: 2, FreqMHz: 100,
		L1DSize: 32 << 10,
		L2Size:  NoL2, // no L2 on the FPGA prototype
	}
	c.setDefaults()
	return c
}

// F4C2 is the 32-PE RV32IMF configuration.
func F4C2() Config {
	c := Config{
		Name: "F4C2", ISA: RV32IMF,
		Clusters: 2,
		L1DSize:  64 << 10, L2Size: 4 << 20,
	}
	c.setDefaults()
	return c
}

// F4C16 is the 256-PE RV32IMF configuration.
func F4C16() Config {
	c := Config{
		Name: "F4C16", ISA: RV32IMF,
		Clusters: 16,
		L1DSize:  128 << 10, L2Size: 4 << 20,
	}
	c.setDefaults()
	return c
}

// F4C32 is the 512-PE flagship configuration.
func F4C32() Config {
	c := Config{
		Name: "F4C32", ISA: RV32IMF,
		Clusters: 32,
		L1DSize:  128 << 10, L2Size: 4 << 20,
	}
	c.setDefaults()
	return c
}

// MultiRing reconfigures cfg into the paper's "16-by-2" spatial format:
// rings dataflow rings of clustersPerRing clusters each (§7.2.1).
func MultiRing(cfg Config, rings, clustersPerRing int) Config {
	cfg.setDefaults()
	cfg.Rings = rings
	cfg.Clusters = clustersPerRing
	cfg.Name = fmt.Sprintf("%s-%dx%d", cfg.Name, rings, clustersPerRing)
	return cfg
}

// buildICache constructs the per-ring instruction cache.
func (c Config) buildICache(lower cache.Port) *cache.Cache {
	return cache.New(cache.Config{
		Name: "L1I", Size: c.L1ISize, LineSize: 64, Assoc: 1, Latency: 1,
	}, lower)
}

// buildL1D constructs the banked per-ring data cache.
func (c Config) buildL1D(lower cache.Port) *cache.Cache {
	return cache.New(cache.Config{
		Name: "L1D", Size: c.L1DSize, LineSize: 64, Assoc: 4,
		Latency: 2, Banks: c.L1DBanks,
	}, lower)
}
