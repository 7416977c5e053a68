package diag_test

import (
	"context"
	"testing"

	"diag/internal/diag"
	"diag/internal/difftest"
	"diag/internal/mem"
)

// genProgram returns the random terminating program difftest generates
// from seed (forward branches, bounded nested loops, confined memory
// traffic, the full RV32IM mix).
func genProgram(t testing.TB, seed int64, atoms int) *mem.Image {
	t.Helper()
	img, err := difftest.GenerateImage(seed, difftest.GenOptions{MaxAtoms: atoms})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return img
}

// run executes img on cfg and returns the stats and memory.
func run(t testing.TB, cfg diag.Config, img *mem.Image) (diag.Stats, *mem.Memory) {
	t.Helper()
	st, m, err := diag.RunImage(cfg, img)
	if err != nil {
		t.Fatalf("RunImage(%s): %v", cfg.Name, err)
	}
	return st, m
}

// TestFuzzBranchyProgramsMatchISS exercises the DiAG timing model with
// random structured programs across all configurations and extension
// combinations: the architectural state — retired count and the digest
// of all of memory — must always equal the golden ISS's.
func TestFuzzBranchyProgramsMatchISS(t *testing.T) {
	archs, err := difftest.SelectArchs("iss")
	if err != nil {
		t.Fatal(err)
	}
	configs := []func() diag.Config{diag.F4C2, diag.F4C16, diag.F4C32}
	for seed := int64(0); seed < 20; seed++ {
		img := genProgram(t, seed, 0)
		ref := archs[0].Run(context.Background(), img, difftest.Budget{})
		if ref.Err != "" {
			t.Fatalf("seed %d: golden ISS: %s", seed, ref.Err)
		}
		for _, mk := range configs {
			cfg := mk()
			// Rotate the extensions through the fuzz corpus.
			switch seed % 4 {
			case 1:
				cfg.StridePrefetch = true
			case 2:
				cfg.SpeculativeDatapaths = true
			case 3:
				cfg.SharedFPUs = 2
			}
			st, m := run(t, cfg, img)
			if st.Retired != ref.Instret {
				t.Fatalf("seed %d %s: retired %d, iss %d", seed, cfg.Name, st.Retired, ref.Instret)
			}
			if d := m.Digest(); d != ref.Digest {
				t.Fatalf("seed %d %s: memory digest %#x, iss %#x", seed, cfg.Name, d, ref.Digest)
			}
		}
	}
}

// TestFuzzTimingSanity checks cross-configuration timing invariants on
// the fuzz corpus: cycles are positive, and since the programs are
// identical, the per-config retire counts agree.
func TestFuzzTimingSanity(t *testing.T) {
	for seed := int64(20); seed < 30; seed++ {
		img := genProgram(t, seed, 60)
		small, _ := run(t, diag.F4C2(), img)
		large, _ := run(t, diag.F4C32(), img)
		if small.Cycles <= 0 || large.Cycles <= 0 {
			t.Fatalf("seed %d: nonpositive cycles", seed)
		}
		if small.Retired != large.Retired {
			t.Fatalf("seed %d: retired differ %d vs %d", seed, small.Retired, large.Retired)
		}
		// A bigger window can reduce line refetching but never retire a
		// different instruction count; lines fetched must not increase.
		if large.LinesFetched > small.LinesFetched {
			t.Errorf("seed %d: F4C32 fetched more lines (%d) than F4C2 (%d)",
				seed, large.LinesFetched, small.LinesFetched)
		}
	}
}

// TestTimingMonotonicity: degrading a resource never speeds a program
// up, across the fuzz corpus.
func TestTimingMonotonicity(t *testing.T) {
	degrade := map[string]func(*diag.Config){
		"slower DRAM":   func(c *diag.Config) { c.DRAMLatency = 400 },
		"slower decode": func(c *diag.Config) { c.DecodeCycles = 4 },
		"tiny L1D":      func(c *diag.Config) { c.L1DSize = 1 << 10 },
	}
	for seed := int64(40); seed < 46; seed++ {
		img := genProgram(t, seed, 50)
		base, _ := run(t, diag.F4C16(), img)
		for name, worsen := range degrade {
			cfg := diag.F4C16()
			worsen(&cfg)
			if st, _ := run(t, cfg, img); st.Cycles < base.Cycles {
				t.Errorf("seed %d: %s sped things up (%d < %d)", seed, name, st.Cycles, base.Cycles)
			}
		}
	}
}

// TestDeterminism: the simulator must be bit-identical across runs —
// same cycles, same stall mix, same cache stats.
func TestDeterminism(t *testing.T) {
	img := genProgram(t, 7, 60)
	a, _ := run(t, diag.F4C16(), img)
	b, _ := run(t, diag.F4C16(), img)
	if a != b {
		t.Errorf("nondeterministic stats:\n%+v\nvs\n%+v", a, b)
	}
}
