// Package ooo implements the baseline out-of-order multicore used as the
// paper's comparator (§7.1): an aggressive 8-issue core in the style of
// gem5's O3 model, with register renaming, a reorder buffer, a unified
// issue queue, a load/store queue with store-to-load forwarding, a
// tournament branch predictor, and a shared L2.
//
// Like the DiAG model, it is execution-driven: the golden ISS supplies
// the committed instruction stream and a timing scoreboard computes when
// each instruction flows through fetch → rename → issue → execute →
// commit. This is the standard trace-accurate OoO formulation: renaming
// removes WAR/WAW hazards by construction, structural limits (widths,
// ROB/IQ/LSQ occupancy, functional-unit pools) bound throughput, and
// branch mispredictions insert frontend-refill bubbles.
package ooo

import "fmt"

// Config parameterizes the baseline core and multicore (§7.1: "issue,
// dispatch, and retire up to 8 instructions with a 2 cycle latency for
// each of these stages", 64KB L1s, 4–8MB unified L2, 12 cores).
// Field order is diag-snap/v1: a new or moved field needs a schema bump.
type Config struct {
	Name  string
	Cores int

	FetchWidth  int // instructions fetched per cycle
	IssueWidth  int // instructions entering execution per cycle
	CommitWidth int // instructions retired per cycle

	FrontendDepth int // cycles from fetch to dispatch (4 stages x 2 cycles)

	ROBSize int
	IQSize  int
	LSQSize int

	// Functional-unit pool sizes.
	IntALUs   int
	IntMulDiv int
	FPUnits   int
	MemPorts  int

	PredictorBits int // tournament predictor table size (2^bits)
	BTBBits       int
	RASDepth      int

	L1ISize     int
	L1DSize     int
	L2Size      int
	DRAMLatency int

	MaxInstructions uint64

	// MaxCycles bounds a run's simulated cycle count (0 = unbounded).
	// Exceeding it fails the run with diagerr.ErrMaxCycles.
	MaxCycles int64
}

func (c *Config) setDefaults() {
	if c.Cores == 0 {
		c.Cores = 1
	}
	if c.FetchWidth == 0 {
		c.FetchWidth = 8
	}
	if c.IssueWidth == 0 {
		c.IssueWidth = 8
	}
	if c.CommitWidth == 0 {
		c.CommitWidth = 8
	}
	if c.FrontendDepth == 0 {
		c.FrontendDepth = 8 // fetch/decode/rename/dispatch at 2 cycles each
	}
	if c.ROBSize == 0 {
		c.ROBSize = 224
	}
	if c.IQSize == 0 {
		c.IQSize = 96
	}
	if c.LSQSize == 0 {
		c.LSQSize = 72
	}
	if c.IntALUs == 0 {
		c.IntALUs = 4
	}
	if c.IntMulDiv == 0 {
		c.IntMulDiv = 2
	}
	if c.FPUnits == 0 {
		c.FPUnits = 2
	}
	if c.MemPorts == 0 {
		c.MemPorts = 2
	}
	if c.PredictorBits == 0 {
		c.PredictorBits = 13
	}
	if c.BTBBits == 0 {
		c.BTBBits = 11
	}
	if c.RASDepth == 0 {
		c.RASDepth = 32
	}
	if c.L1ISize == 0 {
		c.L1ISize = 64 << 10
	}
	if c.L1DSize == 0 {
		c.L1DSize = 64 << 10
	}
	if c.L2Size == 0 {
		c.L2Size = 4 << 20
	}
	if c.DRAMLatency == 0 {
		c.DRAMLatency = 100
	}
	if c.MaxInstructions == 0 {
		c.MaxInstructions = 500_000_000
	}
}

// Validate checks structural parameters.
func (c Config) Validate() error {
	c.setDefaults()
	if c.ROBSize < c.IssueWidth {
		return fmt.Errorf("ooo: ROB %d smaller than issue width %d", c.ROBSize, c.IssueWidth)
	}
	if c.Cores < 1 {
		return fmt.Errorf("ooo: cores %d invalid", c.Cores)
	}
	return nil
}

// Baseline returns the paper's single-core comparator configuration.
func Baseline() Config {
	c := Config{Name: "OoO-8w"}
	c.setDefaults()
	return c
}

// BaselineMulticore returns the paper's 12-core comparator.
func BaselineMulticore(cores int) Config {
	c := Config{Name: fmt.Sprintf("OoO-8w-x%d", cores), Cores: cores}
	c.setDefaults()
	return c
}
