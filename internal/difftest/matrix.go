package difftest

import (
	"context"
	"fmt"
	"strings"

	"diag/internal/diag"
	"diag/internal/isa"
	"diag/internal/iss"
	"diag/internal/mem"
	"diag/internal/ooo"
)

// Budget bounds one architecture run. The campaign derives it from the
// golden run so a divergent runaway (e.g. a model that corrupts a loop
// bound) terminates quickly and is reported as an error divergence
// instead of wedging the fuzzer.
type Budget struct {
	MaxInst   uint64
	MaxCycles int64
}

// goldenCap bounds the golden ISS run itself. Generated programs retire
// a few thousand instructions; a golden run hitting this cap means the
// generator's termination argument broke, which is a fuzzer bug and is
// reported as such.
const goldenCap = 2_000_000

// budgetFor gives the timing machines generous headroom over the golden
// instruction count. Both margins are pure functions of the golden run,
// keeping every trial reproducible.
func budgetFor(goldenInstret uint64) Budget {
	return Budget{
		MaxInst:   goldenInstret*4 + 10_000,
		MaxCycles: int64(goldenInstret)*400 + 400_000,
	}
}

// ArchResult is the architectural outcome of one run: everything the
// conformance contract compares.
type ArchResult struct {
	Arch    string
	Instret uint64
	X       [isa.NumRegs]uint32
	F       [isa.NumRegs]uint32
	Digest  uint64
	Err     string // "" for a clean halt; otherwise the run error
}

// Arch is one column of the differential matrix.
type Arch struct {
	Name string
	// Golden marks the reference column (exactly one per matrix).
	Golden bool
	Run    func(ctx context.Context, img *mem.Image, b Budget) ArchResult
}

func issArch(name string, noPredecode, noSuperblock bool) Arch {
	return Arch{Name: name, Golden: !noPredecode && !noSuperblock,
		Run: func(_ context.Context, img *mem.Image, b Budget) ArchResult {
			res := ArchResult{Arch: name}
			m := mem.New()
			entry, err := img.Load(m)
			if err != nil {
				res.Err = err.Error()
				return res
			}
			c := iss.New(m, entry)
			c.Boot(0, 1) // what the machines apply to their single ring/core
			c.NoPredecode = noPredecode
			c.NoSuperblock = noSuperblock
			budget := b.MaxInst
			if budget == 0 {
				budget = goldenCap
			}
			c.Run(budget)
			res.Instret = c.Instret
			res.X, res.F = c.X, c.F
			res.Digest = m.Digest()
			switch {
			case c.Err != nil:
				res.Err = c.Err.Error()
			case !c.Halted:
				res.Err = fmt.Sprintf("instruction budget %d exhausted before halt", budget)
			}
			return res
		}}
}

func diagArch(name string, cfg diag.Config, noPredecode, noSuperblock bool) Arch {
	return Arch{Name: name,
		Run: func(ctx context.Context, img *mem.Image, b Budget) ArchResult {
			res := ArchResult{Arch: name}
			// Copy the config: one Arch value serves every concurrent
			// trial of a campaign, so the captured cfg must stay frozen.
			run := cfg
			if b.MaxInst > 0 {
				run.MaxInstructions = b.MaxInst
			}
			if b.MaxCycles > 0 {
				run.MaxCycles = b.MaxCycles
			}
			mach, err := diag.NewMachine(run, img)
			if err != nil {
				res.Err = err.Error()
				return res
			}
			cpu := mach.Ring(0).CPU()
			cpu.NoPredecode = noPredecode
			cpu.NoSuperblock = noSuperblock
			if err := mach.RunContext(ctx); err != nil {
				res.Err = err.Error()
			}
			res.Instret = mach.Stats().Retired
			res.X, res.F = cpu.X, cpu.F
			res.Digest = mach.Mem().Digest()
			return res
		}}
}

func oooArch(name string, cfg ooo.Config) Arch {
	return Arch{Name: name,
		Run: func(ctx context.Context, img *mem.Image, b Budget) ArchResult {
			res := ArchResult{Arch: name}
			run := cfg
			if b.MaxInst > 0 {
				run.MaxInstructions = b.MaxInst
			}
			if b.MaxCycles > 0 {
				run.MaxCycles = b.MaxCycles
			}
			mach, err := ooo.NewMachine(run, img)
			if err != nil {
				res.Err = err.Error()
				return res
			}
			cpu := mach.Core(0).CPU()
			if err := mach.RunContext(ctx); err != nil {
				res.Err = err.Error()
			}
			res.Instret = mach.Stats().Retired
			res.X, res.F = cpu.X, cpu.F
			res.Digest = mach.Mem().Digest()
			return res
		}}
}

// archRegistry builds the full matrix. Every column is single-hart
// (one ring / one core): multi-ring machines run one whole program per
// hart with distinct tp values, which is a different computation from
// the single-hart golden run, not a conformance check of it.
func archRegistry() []Arch {
	specCfg := diag.F4C2()
	specCfg.SpeculativeDatapaths = true
	degCfg := diag.F4C16()
	degCfg.DisabledClusterMask = 0xAAAA // alternate clusters fused off: reuse remap path

	return []Arch{
		issArch("iss", false, false),     // golden: predecoded, superblock-dispatched ISS
		issArch("iss-raw", true, false),  // fetch+decode every step (implies no superblocks)
		issArch("iss-nosb", false, true), // predecoded but stepped: isolates the block layer
		diagArch("ring", diag.F4C2(), false, false),
		diagArch("ring-nopre", diag.F4C2(), true, false),
		diagArch("ring-nosb", diag.F4C2(), false, true), // knob parity; ring steps regardless
		diagArch("ring-spec", specCfg, false, false),
		diagArch("ring-c16", diag.F4C16(), false, false), // wide window: cluster-reuse heavy
		diagArch("ring-degraded", degCfg, false, false),  // degraded-mode cluster remap
		oooArch("ooo", ooo.Baseline()),
	}
}

// ArchNames lists every matrix column in declaration order.
func ArchNames() []string {
	regs := archRegistry()
	names := make([]string, len(regs))
	for i, a := range regs {
		names[i] = a.Name
	}
	return names
}

// SelectArchs resolves a comma-separated arch list ("all", or e.g.
// "ring,ooo"). The golden ISS is always included; order follows the
// registry so reports render identically however the list was written.
func SelectArchs(list string) ([]Arch, error) {
	regs := archRegistry()
	if list == "" || list == "all" {
		return regs, nil
	}
	want := map[string]bool{"iss": true}
	for _, tok := range strings.Split(list, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		found := false
		for _, a := range regs {
			if a.Name == tok {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("difftest: unknown arch %q (have %s)", tok, strings.Join(ArchNames(), ","))
		}
		want[tok] = true
	}
	var out []Arch
	for _, a := range regs {
		if want[a.Name] {
			out = append(out, a)
		}
	}
	return out, nil
}

// Divergence is one field-level disagreement between an architecture
// and the golden model on one program.
type Divergence struct {
	Arch   string
	Kind   string // "error", "instret", "reg", "freg", "mem"
	Detail string
}

func (d Divergence) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Arch, d.Kind, d.Detail)
}

// compare lists every disagreement between got and the golden result.
// Detail strings are pure functions of the two results, so reports are
// deterministic.
func compare(golden, got ArchResult) []Divergence {
	var divs []Divergence
	add := func(kind, format string, args ...any) {
		divs = append(divs, Divergence{Arch: got.Arch, Kind: kind, Detail: fmt.Sprintf(format, args...)})
	}
	if golden.Err != got.Err {
		add("error", "run error %q, golden %q", got.Err, golden.Err)
		// With different termination, downstream state comparison is
		// all noise; the error divergence is the report.
		return divs
	}
	if golden.Instret != got.Instret {
		add("instret", "retired %d, golden %d", got.Instret, golden.Instret)
	}
	for r := 0; r < isa.NumRegs; r++ {
		if got.X[r] != golden.X[r] {
			add("reg", "x%d = 0x%08x, golden 0x%08x", r, got.X[r], golden.X[r])
		}
		if got.F[r] != golden.F[r] {
			add("freg", "f%d = 0x%08x, golden 0x%08x", r, got.F[r], golden.F[r])
		}
	}
	if golden.Digest != got.Digest {
		add("mem", "memory digest 0x%016x, golden 0x%016x", got.Digest, golden.Digest)
	}
	return divs
}

// RunMatrix executes img on every arch and returns all divergences
// against the golden column, ordered by matrix position. The golden
// result is returned too (its Err is non-empty when the program itself
// is broken, in which case no divergence can be attributed).
func RunMatrix(ctx context.Context, archs []Arch, img *mem.Image) (ArchResult, []Divergence) {
	gi := 0
	for i, a := range archs {
		if a.Golden {
			gi = i
			break
		}
	}
	golden := archs[gi].Run(ctx, img, Budget{})
	if golden.Err != "" {
		return golden, nil
	}
	b := budgetFor(golden.Instret)
	var divs []Divergence
	for i, a := range archs {
		if i == gi {
			continue
		}
		divs = append(divs, compare(golden, a.Run(ctx, img, b))...)
	}
	return golden, divs
}
