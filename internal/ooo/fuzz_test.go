package ooo_test

import (
	"context"
	"testing"

	"diag/internal/difftest"
	"diag/internal/mem"
	"diag/internal/ooo"
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
func run(t testing.TB, cfg ooo.Config, img *mem.Image) (ooo.Stats, *mem.Memory) {
	t.Helper()
	st, m, err := ooo.RunImage(cfg, img)
	if err != nil {
		t.Fatalf("RunImage(%s): %v", cfg.Name, err)
	}
	return st, m
}

// TestFuzzBranchyProgramsMatchISS exercises the out-of-order timing
// model with random structured programs: the architectural state —
// retired count and the digest of all of memory — must equal the golden
// ISS's regardless of speculation and squashing.
func TestFuzzBranchyProgramsMatchISS(t *testing.T) {
	archs, err := difftest.SelectArchs("iss")
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 20; seed++ {
		img := genProgram(t, seed, 0)
		ref := archs[0].Run(context.Background(), img, difftest.Budget{})
		if ref.Err != "" {
			t.Fatalf("seed %d: golden ISS: %s", seed, ref.Err)
		}
		cfg := ooo.Baseline()
		if seed%3 == 1 {
			cfg.ROBSize = 32 // tiny window must still be correct
		}
		if seed%3 == 2 {
			cfg.IssueWidth = 2
			cfg.FetchWidth = 2
			cfg.CommitWidth = 2
		}
		st, m := run(t, cfg, img)
		if st.Retired != ref.Instret {
			t.Fatalf("seed %d: retired %d, iss %d", seed, st.Retired, ref.Instret)
		}
		if d := m.Digest(); d != ref.Digest {
			t.Fatalf("seed %d: memory digest %#x, iss %#x", seed, d, ref.Digest)
		}
	}
}

// TestFuzzNarrowMachineSlower: on the fuzz corpus, a 1-wide machine
// never beats the 8-wide one.
func TestFuzzNarrowMachineSlower(t *testing.T) {
	for seed := int64(30); seed < 38; seed++ {
		img := genProgram(t, seed, 50)
		wide, _ := run(t, ooo.Baseline(), img)
		narrow := ooo.Baseline()
		narrow.IssueWidth = 1
		narrow.FetchWidth = 1
		narrow.CommitWidth = 1
		nst, _ := run(t, narrow, img)
		if nst.Cycles < wide.Cycles {
			t.Errorf("seed %d: 1-wide (%d cycles) beat 8-wide (%d)", seed, nst.Cycles, wide.Cycles)
		}
	}
}

// TestIPCNeverExceedsIssueWidth: a structural invariant of the model.
func TestIPCNeverExceedsIssueWidth(t *testing.T) {
	for seed := int64(50); seed < 56; seed++ {
		st, _ := run(t, ooo.Baseline(), genProgram(t, seed, 50))
		if st.IPC() > float64(ooo.Baseline().IssueWidth) {
			t.Errorf("seed %d: IPC %.2f exceeds issue width", seed, st.IPC())
		}
	}
}
