// Package explore is the declarative design-space explorer: it expands
// an architecture description (Space) into the full cross product of
// candidate DiAG configurations, evaluates every candidate per workload
// on the parallel experiment engine, and reduces the results to a
// Pareto frontier over cycles × area × energy — the comparison the
// paper's headline result is (I4C2/F4C2 vs an out-of-order baseline),
// generalized from two hand-picked points to thousands.
//
// A Space is a set of axes, one per configuration parameter, in the
// style of declarative accelerator descriptions (FactorFlow's
// MemLevel / FanoutLevel / ComputeLevel): geometry axes (PEs per
// cluster, clusters, rings), lane-timing axes, and memory levels with
// candidate capacities and optional per-access energies. Expansion is
// deterministic: candidates appear in a fixed documented axis order,
// invalid combinations are dropped (and counted), duplicates that
// canonicalize to the same configuration are folded, and every
// candidate gets a canonical name and a digest
// (journal.DigestJSON) that keys its results in the run journal.
//
// Everything downstream inherits the repository's determinism
// contract: the frontier is byte-identical at any worker count, and a
// journaled exploration resumes after a crash with an identical
// report.
package explore

import (
	"fmt"
	"sort"

	"diag/internal/diag"
	"diag/internal/journal"
	"diag/internal/power"
)

// MemLevel describes one memory level of the space: the candidate
// capacities of the level and, optionally, a measured per-access energy
// that overrides the CACTI-like capacity fit (the FactorFlow
// value_access_energy idiom).
type MemLevel struct {
	// Sizes are the candidate capacities in bytes. For the L2 level a
	// size of 0 removes the level (the I4C2 FPGA prototype has none).
	Sizes []int `json:"sizes,omitempty"`
	// Banks are the candidate bank counts (used by the L1D level only).
	Banks []int `json:"banks,omitempty"`
	// AccessEnergy, when non-zero, is the per-access energy in joules
	// for every candidate of this level (0 = derived from capacity).
	AccessEnergy float64 `json:"access_energy,omitempty"`
}

// Space is the declarative description of a DiAG design space. Every
// slice field is an axis: the space is the cross product of all axes,
// and an empty axis means "the default value only". The JSON form of
// this struct is what diag-explore's -space flag accepts.
type Space struct {
	// Name labels the space in reports and the run journal.
	Name string `json:"name,omitempty"`

	// FreqMHz is the clock of every candidate — a scalar, not an axis:
	// in this model frequency scales runtime and therefore static
	// energy uniformly across all candidates, so exploring it would
	// only rescale every point (0 = 2000, the paper's ASIC clock).
	FreqMHz int `json:"freq_mhz,omitempty"`

	// Compute axes.
	ISA        []string `json:"isa,omitempty"`         // "RV32I", "RV32IMF" (default RV32IMF)
	SharedFPUs []int    `json:"shared_fpus,omitempty"` // FPUs shared per cluster (0 = one per PE)

	// Geometry (fanout) axes.
	PEsPerCluster []int `json:"pes_per_cluster,omitempty"` // default 16
	Clusters      []int `json:"clusters,omitempty"`        // per ring; default 2
	Rings         []int `json:"rings,omitempty"`           // default 1

	// Lane-timing axes.
	LaneBufferEvery []int `json:"lane_buffer_every,omitempty"` // pipeline buffer spacing; default 8
	BusCycles       []int `json:"bus_cycles,omitempty"`        // shared-bus transfer; default 2

	// Memory levels.
	L1I          MemLevel `json:"l1i,omitempty"`            // default 32 KiB
	L1D          MemLevel `json:"l1d,omitempty"`            // default 64 KiB × 4 banks
	L2           MemLevel `json:"l2,omitempty"`             // default 4 MiB; 0 = absent
	MemLaneLines []int    `json:"mem_lane_lines,omitempty"` // cluster memory-lane entries; default 4
	DRAMLatency  []int    `json:"dram_latency,omitempty"`   // cycles; default 100
}

// Axis defaults, shared by canonicalization and candidate naming: a
// parameter at its default value is omitted from the canonical name.
const (
	defFreqMHz     = 2000
	defPEs         = 16
	defClusters    = 2
	defRings       = 1
	defLaneBuffer  = 8
	defBusCycles   = 2
	defL1I         = 32 << 10
	defL1D         = 64 << 10
	defL1DBanks    = 4
	defL2          = 4 << 20
	defMemLanes    = 4
	defDRAMLatency = 100
)

// isaLevels maps the accepted ISA axis spellings.
func isaLevel(s string) (diag.ISALevel, error) {
	switch s {
	case "RV32I":
		return diag.RV32I, nil
	case "RV32IMF":
		return diag.RV32IMF, nil
	}
	return 0, fmt.Errorf("explore: unknown ISA %q (want RV32I or RV32IMF)", s)
}

// Canonical returns the space with every axis defaulted, sorted
// ascending, and deduplicated — the form that is digested, journaled,
// and embedded in reports. Two spaces with the same canonical form
// expand to the same candidates in the same order.
func (s Space) Canonical() Space {
	c := s
	if c.FreqMHz == 0 {
		c.FreqMHz = defFreqMHz
	}
	c.ISA = canonStrings(c.ISA, "RV32IMF")
	c.SharedFPUs = canonInts(c.SharedFPUs, 0)
	c.PEsPerCluster = canonInts(c.PEsPerCluster, defPEs)
	c.Clusters = canonInts(c.Clusters, defClusters)
	c.Rings = canonInts(c.Rings, defRings)
	c.LaneBufferEvery = canonInts(c.LaneBufferEvery, defLaneBuffer)
	c.BusCycles = canonInts(c.BusCycles, defBusCycles)
	c.L1I.Sizes = canonInts(c.L1I.Sizes, defL1I)
	c.L1I.Banks = nil
	c.L1D.Sizes = canonInts(c.L1D.Sizes, defL1D)
	c.L1D.Banks = canonInts(c.L1D.Banks, defL1DBanks)
	c.L2.Sizes = canonInts(c.L2.Sizes, defL2)
	c.L2.Banks = nil
	c.MemLaneLines = canonInts(c.MemLaneLines, defMemLanes)
	c.DRAMLatency = canonInts(c.DRAMLatency, defDRAMLatency)
	return c
}

// Digest identifies the canonical space for journal manifests and
// result caching.
func (s Space) Digest() uint64 { return journal.DigestJSON(s.Canonical()) }

// Points returns the cross-product size of the canonical space before
// validation and deduplication.
func (s Space) Points() int {
	c := s.Canonical()
	n := len(c.ISA) * len(c.SharedFPUs) * len(c.PEsPerCluster) * len(c.Clusters) * len(c.Rings) *
		len(c.LaneBufferEvery) * len(c.BusCycles) *
		len(c.L1I.Sizes) * len(c.L1D.Sizes) * len(c.L1D.Banks) * len(c.L2.Sizes) *
		len(c.MemLaneLines) * len(c.DRAMLatency)
	return n
}

func canonInts(xs []int, def int) []int {
	if len(xs) == 0 {
		return []int{def}
	}
	out := append([]int(nil), xs...)
	sort.Ints(out)
	return dedupInts(out)
}

func dedupInts(sorted []int) []int {
	out := sorted[:0]
	for i, x := range sorted {
		if i == 0 || x != sorted[i-1] {
			out = append(out, x)
		}
	}
	return out
}

func canonStrings(xs []string, def string) []string {
	if len(xs) == 0 {
		return []string{def}
	}
	out := append([]string(nil), xs...)
	sort.Strings(out)
	dst := out[:0]
	for i, x := range out {
		if i == 0 || x != out[i-1] {
			dst = append(dst, x)
		}
	}
	return dst
}

// Candidate is one expanded point of a space: a complete, validated
// DiAG configuration plus the space's per-access energy overrides.
type Candidate struct {
	// Config is the fully specified configuration; Config.Name is the
	// candidate's canonical name.
	Config diag.Config
	// Energies carries the space's per-access energy overrides.
	Energies power.CacheEnergies
	// Paper names the paper configuration (I4C2, F4C2, F4C16, F4C32)
	// this candidate's architecture matches, or "" — the named dots of
	// the frontier.
	Paper string
	// Digest keys the candidate in journals and caches:
	// journal.DigestJSON over Config and Energies.
	Digest uint64
}

// Name is the candidate's canonical name (Config.Name).
func (c Candidate) Name() string { return c.Config.Name }

// Label is the display name: the paper configuration name when the
// candidate is one, the canonical name otherwise.
func (c Candidate) Label() string {
	if c.Paper != "" {
		return c.Paper
	}
	return c.Config.Name
}

// Expansion summarizes what Expand did with the cross product.
type Expansion struct {
	// Points is the raw cross-product size.
	Points int
	// Invalid counts combinations dropped by Config.Validate (odd PE
	// counts, fewer than two clusters, ...).
	Invalid int
	// Duplicate counts combinations folded because canonicalization
	// made them identical to an earlier candidate (an RV32I point with
	// shared FPUs collapses onto its FPU-less twin: there is no FPU to
	// share).
	Duplicate int
}

// Expand enumerates the space's candidates in deterministic order: the
// axes iterate outer-to-inner as ISA, PEsPerCluster, Clusters, Rings,
// LaneBufferEvery, BusCycles, L1I, L1D size, L1D banks, L2,
// MemLaneLines, DRAMLatency, SharedFPUs, each ascending. Invalid
// combinations are dropped and duplicates folded (first occurrence
// wins), so the result is a list of unique, validated configurations.
func (s Space) Expand() ([]Candidate, Expansion, error) {
	c := s.Canonical()
	ex := Expansion{Points: c.Points()}
	energies := power.CacheEnergies{
		L1I: c.L1I.AccessEnergy,
		L1D: c.L1D.AccessEnergy,
		L2:  c.L2.AccessEnergy,
	}
	var (
		out  []Candidate
		seen = make(map[uint64]bool)
	)
	for _, isaName := range c.ISA {
		isa, err := isaLevel(isaName)
		if err != nil {
			return nil, Expansion{}, err
		}
		for _, pes := range c.PEsPerCluster {
			for _, clusters := range c.Clusters {
				for _, rings := range c.Rings {
					for _, lb := range c.LaneBufferEvery {
						for _, bus := range c.BusCycles {
							for _, l1i := range c.L1I.Sizes {
								for _, l1d := range c.L1D.Sizes {
									for _, banks := range c.L1D.Banks {
										for _, l2 := range c.L2.Sizes {
											if l2 <= 0 {
												// Space semantics: size 0 removes the level.
												// Config treats 0 as "default 4 MiB", so
												// translate to the explicit sentinel.
												l2 = diag.NoL2
											}
											for _, ml := range c.MemLaneLines {
												for _, dl := range c.DRAMLatency {
													for _, fpus := range c.SharedFPUs {
														cfg := diag.Config{
															ISA:           isa,
															PEsPerCluster: pes, Clusters: clusters, Rings: rings,
															FreqMHz:         c.FreqMHz,
															LaneBufferEvery: lb, BusCycles: bus,
															DecodeCycles: 1, RedirectCycles: 1,
															L1ISize: l1i, L1DSize: l1d, L1DBanks: banks, L2Size: l2,
															MemLaneLines: ml, DRAMLatency: dl,
															SharedFPUs: fpus,
														}
														if cfg.ISA == diag.RV32I {
															// Integer-only PEs have no FPU to share.
															cfg.SharedFPUs = 0
														}
														if cfg.Validate() != nil {
															ex.Invalid++
															continue
														}
														cfg.Name = candidateName(cfg)
														cand := Candidate{
															Config:   cfg,
															Energies: energies,
															Paper:    paperName(cfg),
														}
														cand.Digest = journal.DigestJSON(struct {
															Config   diag.Config
															Energies power.CacheEnergies
														}{cfg, energies})
														if seen[cand.Digest] {
															ex.Duplicate++
															continue
														}
														seen[cand.Digest] = true
														out = append(out, cand)
													}
												}
											}
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return out, ex, nil
}

// candidateName builds the canonical, injective short name of a
// configuration: ISA + geometry always, every other parameter only when
// it differs from its default (so paper-like points read compactly):
//
//	fp16c2r1-L4M            F4C2's architecture
//	ip16c2r1-d32K-L0        I4C2's architecture
//	fp16c8r2-lb4-d128Kb8    denser pipelining, 8-bank 128 KiB L1D
func candidateName(cfg diag.Config) string {
	isa := "f"
	if cfg.ISA == diag.RV32I {
		isa = "i"
	}
	n := fmt.Sprintf("%sp%dc%dr%d", isa, cfg.PEsPerCluster, cfg.Clusters, cfg.Rings)
	if cfg.LaneBufferEvery != defLaneBuffer {
		n += fmt.Sprintf("-lb%d", cfg.LaneBufferEvery)
	}
	if cfg.BusCycles != defBusCycles {
		n += fmt.Sprintf("-bu%d", cfg.BusCycles)
	}
	if cfg.L1ISize != defL1I {
		n += "-i" + sizeName(cfg.L1ISize)
	}
	if cfg.L1DSize != defL1D || cfg.L1DBanks != defL1DBanks {
		n += "-d" + sizeName(cfg.L1DSize)
		if cfg.L1DBanks != defL1DBanks {
			n += fmt.Sprintf("b%d", cfg.L1DBanks)
		}
	}
	if cfg.L2Size != defL2 {
		n += "-L" + sizeName(cfg.L2Size)
	}
	if cfg.MemLaneLines != defMemLanes {
		n += fmt.Sprintf("-ml%d", cfg.MemLaneLines)
	}
	if cfg.DRAMLatency != defDRAMLatency {
		n += fmt.Sprintf("-dl%d", cfg.DRAMLatency)
	}
	if cfg.SharedFPUs > 0 {
		n += fmt.Sprintf("-s%d", cfg.SharedFPUs)
	}
	return n
}

// sizeName renders a capacity compactly: 32768 → "32K", 4<<20 → "4M",
// 0 → "0".
func sizeName(bytes int) string {
	switch {
	case bytes <= 0:
		return "0"
	case bytes%(1<<20) == 0:
		return fmt.Sprintf("%dM", bytes>>20)
	case bytes%(1<<10) == 0:
		return fmt.Sprintf("%dK", bytes>>10)
	}
	return fmt.Sprintf("%d", bytes)
}

// paperName returns the Table 2 configuration name whose architecture
// cfg matches, ignoring the clock and run budgets (the FPGA prototype's
// 100 MHz is a prototype artifact, not an architecture), or "".
func paperName(cfg diag.Config) string {
	for _, p := range diag.Table2Configs() {
		if sameArch(cfg, p) {
			return p.Name
		}
	}
	return ""
}

// sameArch compares the structural fields of two configurations:
// everything except Name, FreqMHz, and the run budgets.
func sameArch(a, b diag.Config) bool {
	a.Name, b.Name = "", ""
	a.FreqMHz, b.FreqMHz = 0, 0
	a.MaxInstructions, b.MaxInstructions = 0, 0
	a.MaxCycles, b.MaxCycles = 0, 0
	return a == b
}
