package workloads

import (
	"fmt"
	"testing"

	"diag/internal/diag"
	"diag/internal/iss"
	"diag/internal/mem"
	"diag/internal/ooo"
)

// issRunThreads executes img once per thread on the ISS (the same
// sequential-thread convention as the machines) and returns the memory.
func issRunThreads(t testing.TB, img *mem.Image, threads int) *mem.Memory {
	t.Helper()
	m := mem.New()
	entry, err := img.Load(m)
	if err != nil {
		t.Fatal(err)
	}
	for tid := 0; tid < threads; tid++ {
		c := iss.New(m, entry)
		c.Boot(tid, threads)
		if n := c.Run(200_000_000); n == 200_000_000 {
			t.Fatalf("thread %d did not halt", tid)
		}
		if c.Err != nil {
			t.Fatalf("thread %d: %v", tid, c.Err)
		}
	}
	return m
}

func TestRegistryComplete(t *testing.T) {
	if len(All()) != 27 {
		t.Fatalf("expected 27 workloads, have %d", len(All()))
	}
	if len(BySuite(Rodinia)) != 14 {
		t.Errorf("Rodinia count = %d", len(BySuite(Rodinia)))
	}
	if len(BySuite(SPEC)) != 13 {
		t.Errorf("SPEC count = %d", len(BySuite(SPEC)))
	}
	seen := map[string]bool{}
	for _, w := range All() {
		if seen[w.Name] {
			t.Errorf("duplicate workload %q", w.Name)
		}
		seen[w.Name] = true
		if w.Build == nil || w.Check == nil {
			t.Errorf("%s missing Build/Check", w.Name)
		}
	}
	if _, ok := ByName("hotspot"); !ok {
		t.Error("ByName failed")
	}
	if _, ok := ByName("nonesuch"); ok {
		t.Error("ByName should fail for unknown")
	}
}

// TestSerialCorrectness runs every workload serially on the golden ISS
// and validates the result against the Go reference.
func TestSerialCorrectness(t *testing.T) {
	for _, w := range All() {
		t.Run(w.Name, func(t *testing.T) {
			p := Params{Scale: 1, Threads: 1}
			img, err := w.Build(p)
			if err != nil {
				t.Fatal(err)
			}
			m := issRunThreads(t, img, 1)
			if err := w.Check(m, p); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestParallelCorrectness runs every workload with 4 threads.
func TestParallelCorrectness(t *testing.T) {
	for _, w := range All() {
		t.Run(w.Name, func(t *testing.T) {
			p := Params{Scale: 1, Threads: 4}
			img, err := w.Build(p)
			if err != nil {
				t.Fatal(err)
			}
			m := issRunThreads(t, img, 4)
			if err := w.Check(m, p); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSIMTCorrectness runs the SIMT-annotated form of every capable
// workload (the annotations are functional hardware loops on the ISS).
func TestSIMTCorrectness(t *testing.T) {
	n := 0
	for _, w := range All() {
		if !w.SIMTCapable {
			continue
		}
		n++
		t.Run(w.Name, func(t *testing.T) {
			p := Params{Scale: 1, Threads: 1, SIMT: true}
			img, err := w.Build(p)
			if err != nil {
				t.Fatal(err)
			}
			m := issRunThreads(t, img, 1)
			if err := w.Check(m, p); err != nil {
				t.Fatal(err)
			}
		})
	}
	if n < 10 {
		t.Errorf("expected at least 10 SIMT-capable workloads, have %d", n)
	}
}

// TestDiAGIntegration runs every workload on the F4C2 DiAG machine.
func TestDiAGIntegration(t *testing.T) {
	for _, w := range All() {
		t.Run(w.Name, func(t *testing.T) {
			p := Params{Scale: 1, Threads: 1}
			img, err := w.Build(p)
			if err != nil {
				t.Fatal(err)
			}
			st, m, err := diag.RunImage(diag.F4C2(), img)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Check(m, p); err != nil {
				t.Fatal(err)
			}
			if st.Cycles <= 0 || st.Retired == 0 {
				t.Error("empty stats")
			}
		})
	}
}

// TestOoOIntegration runs every workload on the baseline machine.
func TestOoOIntegration(t *testing.T) {
	for _, w := range All() {
		t.Run(w.Name, func(t *testing.T) {
			p := Params{Scale: 1, Threads: 1}
			img, err := w.Build(p)
			if err != nil {
				t.Fatal(err)
			}
			st, m, err := ooo.RunImage(ooo.Baseline(), img)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Check(m, p); err != nil {
				t.Fatal(err)
			}
			if st.Cycles <= 0 {
				t.Error("empty stats")
			}
		})
	}
}

// TestSIMTOnDiAG runs the SIMT forms through the DiAG pipeline model and
// checks both correctness and that pipelining actually engaged.
func TestSIMTOnDiAG(t *testing.T) {
	for _, w := range All() {
		if !w.SIMTCapable {
			continue
		}
		t.Run(w.Name, func(t *testing.T) {
			p := Params{Scale: 1, Threads: 1, SIMT: true}
			img, err := w.Build(p)
			if err != nil {
				t.Fatal(err)
			}
			st, m, err := diag.RunImage(diag.F4C16(), img)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Check(m, p); err != nil {
				t.Fatal(err)
			}
			if st.SIMTRegions == 0 {
				t.Errorf("SIMT never engaged (rejects=%d)", st.SIMTRejects)
			}
		})
	}
}

// TestMultiThreadOnDiAGRings runs the parallel forms on a 4-ring machine.
func TestMultiThreadOnDiAGRings(t *testing.T) {
	for _, name := range []string{"hotspot", "mcf", "pathfinder", "x264"} {
		w, _ := ByName(name)
		t.Run(name, func(t *testing.T) {
			p := Params{Scale: 1, Threads: 4}
			img, err := w.Build(p)
			if err != nil {
				t.Fatal(err)
			}
			cfg := diag.MultiRing(diag.F4C32(), 4, 2)
			_, m, err := diag.RunImage(cfg, img)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Check(m, p); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestGoldenEndStateAgreement runs every kernel on the golden ISS, the
// F4C2 DiAG machine, and the OoO baseline, and asserts the three final
// memory images are bit-identical (same digest) with equal
// retired-instruction counts — the full conformance contract, not just
// the workload's own output check.
func TestGoldenEndStateAgreement(t *testing.T) {
	for _, w := range All() {
		t.Run(w.Name, func(t *testing.T) {
			p := Params{Scale: 1, Threads: 1}
			img, err := w.Build(p)
			if err != nil {
				t.Fatal(err)
			}

			gm := mem.New()
			entry, err := img.Load(gm)
			if err != nil {
				t.Fatal(err)
			}
			g := iss.New(gm, entry)
			g.Boot(0, 1)
			g.Run(200_000_000)
			if g.Err != nil || !g.Halted {
				t.Fatalf("golden run: halted=%v err=%v", g.Halted, g.Err)
			}
			goldenDigest := gm.Digest()

			dst, dm, err := diag.RunImage(diag.F4C2(), img)
			if err != nil {
				t.Fatal(err)
			}
			if got := dm.Digest(); got != goldenDigest {
				t.Errorf("DiAG memory digest 0x%016x, golden 0x%016x", got, goldenDigest)
			}
			if dst.Retired != g.Instret {
				t.Errorf("DiAG retired %d, golden %d", dst.Retired, g.Instret)
			}
			if err := w.Check(dm, p); err != nil {
				t.Errorf("DiAG check: %v", err)
			}

			ost, om, err := ooo.RunImage(ooo.Baseline(), img)
			if err != nil {
				t.Fatal(err)
			}
			if got := om.Digest(); got != goldenDigest {
				t.Errorf("OoO memory digest 0x%016x, golden 0x%016x", got, goldenDigest)
			}
			if ost.Retired != g.Instret {
				t.Errorf("OoO retired %d, golden %d", ost.Retired, g.Instret)
			}
			if err := w.Check(om, p); err != nil {
				t.Errorf("OoO check: %v", err)
			}
		})
	}
}

// TestScaleGrowsWork sanity-checks the Scale knob.
func TestScaleGrowsWork(t *testing.T) {
	w, _ := ByName("hotspot")
	cycles := func(scale int) uint64 {
		img, err := w.Build(Params{Scale: scale, Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		m := mem.New()
		entry, _ := img.Load(m)
		c := iss.New(m, entry)
		c.Boot(0, 1)
		c.Run(200_000_000)
		return c.Instret
	}
	if c2, c1 := cycles(2), cycles(1); c2 < c1*3/2 {
		t.Errorf("Scale 2 should do more work: %d vs %d", c2, c1)
	}
}

// TestChecksCatchCorruption verifies the reference checks actually fail
// on wrong output (guards against vacuous checks).
func TestChecksCatchCorruption(t *testing.T) {
	for _, name := range []string{"hotspot", "btree", "x264", "lbm"} {
		w, _ := ByName(name)
		t.Run(name, func(t *testing.T) {
			p := Params{Scale: 1, Threads: 1}
			img, err := w.Build(p)
			if err != nil {
				t.Fatal(err)
			}
			m := issRunThreads(t, img, 1)
			// Corrupt one output word.
			m.StoreWord(outBase+4*7, m.LoadWord(outBase+4*7)+1)
			if err := w.Check(m, p); err == nil {
				t.Error("check passed on corrupted output")
			}
		})
	}
}

// TestWorkloadClassesAssigned ensures the metadata used by the bench
// harness is present.
func TestWorkloadClassesAssigned(t *testing.T) {
	valid := map[string]bool{"compute": true, "memory": true, "control": true, "mixed": true}
	for _, w := range All() {
		if !valid[w.Class] {
			t.Errorf("%s has invalid class %q", w.Name, w.Class)
		}
	}
}

func ExampleByName() {
	w, ok := ByName("hotspot")
	fmt.Println(ok, w.Suite, w.Class)
	// Output: true rodinia compute
}
