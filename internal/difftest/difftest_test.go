package difftest

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"diag/internal/isa"
	"diag/internal/iss"
	"diag/internal/mem"
)

// TestGenerateDeterministic: equal seeds must yield structurally equal
// programs and identical resolved machine code.
func TestGenerateDeterministic(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		a := Generate(rand.New(rand.NewSource(seed)), GenOptions{})
		b := Generate(rand.New(rand.NewSource(seed)), GenOptions{})
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: programs differ", seed)
		}
		wa, err := a.resolve()
		if err != nil {
			t.Fatalf("seed %d: resolve: %v", seed, err)
		}
		wb, _ := b.resolve()
		if !reflect.DeepEqual(wa, wb) {
			t.Fatalf("seed %d: resolved words differ", seed)
		}
	}
}

// TestGeneratedProgramsTerminate: every generated program must halt
// cleanly on the golden ISS well under the golden budget — the
// generator's termination argument, checked empirically.
func TestGeneratedProgramsTerminate(t *testing.T) {
	archs, err := SelectArchs("iss")
	if err != nil {
		t.Fatal(err)
	}
	golden := archs[0]
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := Generate(rng, GenOptions{})
		img, err := p.Image(Scratch(rng))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res := golden.Run(context.Background(), img, Budget{})
		if res.Err != "" {
			t.Fatalf("seed %d: golden run failed: %s\n%s", seed, res.Err, p.Disassemble())
		}
		if res.Instret >= goldenCap {
			t.Fatalf("seed %d: retired %d, at the cap — termination argument broken", seed, res.Instret)
		}
	}
}

// TestGenerateImageDeterministic: GenerateImage, the one-seed entry
// point the fuzz/property tests build on, must give the same image for
// the same seed and a different one for a different seed.
func TestGenerateImageDeterministic(t *testing.T) {
	a, err := GenerateImage(42, GenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateImage(42, GenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("generation must be deterministic per seed")
	}
	c, err := GenerateImage(43, GenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds should differ")
	}
}

// TestGenerateImageLoadsAndTerminates: every GenerateImage image must
// load into fresh memory and run to a clean halt on a bare ISS core,
// for small and default program sizes alike.
func TestGenerateImageLoadsAndTerminates(t *testing.T) {
	for _, atoms := range []int{8, 0} {
		for seed := int64(0); seed < 30; seed++ {
			img, err := GenerateImage(seed, GenOptions{MaxAtoms: atoms})
			if err != nil {
				t.Fatalf("atoms %d seed %d: %v", atoms, seed, err)
			}
			m := mem.New()
			entry, err := img.Load(m)
			if err != nil {
				t.Fatalf("atoms %d seed %d: load: %v", atoms, seed, err)
			}
			c := iss.New(m, entry)
			if n := c.Run(1_000_000); n == 1_000_000 {
				t.Fatalf("atoms %d seed %d: did not terminate", atoms, seed)
			}
			if c.Err != nil {
				t.Fatalf("atoms %d seed %d: %v", atoms, seed, c.Err)
			}
		}
	}
}

// TestFuzzCorporaHaveControlFlowVariety: the seed ranges and sizes the
// fuzz/property tests in internal/diag and internal/ooo draw from
// GenerateImage must each contain loops, forward branches and memory
// traffic. The generator draws atom kinds at random, so this is checked,
// not assumed.
func TestFuzzCorporaHaveControlFlowVariety(t *testing.T) {
	// {first seed, end seed, MaxAtoms} of TestFuzzBranchyProgramsMatchISS
	// (both packages), diag's TestFuzzTimingSanity and
	// TestTimingMonotonicity, and ooo's TestFuzzNarrowMachineSlower and
	// TestIPCNeverExceedsIssueWidth.
	for _, r := range [][3]int64{{0, 20, 0}, {20, 30, 60}, {40, 46, 50}, {30, 38, 50}, {50, 56, 50}} {
		seen := map[Kind]bool{}
		for seed := r[0]; seed < r[1]; seed++ {
			for _, a := range Generate(rand.New(rand.NewSource(seed)), GenOptions{MaxAtoms: int(r[2])}).Atoms {
				seen[a.Kind] = true
			}
		}
		for k, name := range map[Kind]string{KindLoopInit: "loop", KindBranch: "forward-branch", KindMem: "memory"} {
			if !seen[k] {
				t.Errorf("seeds %d..%d at %d atoms: no %s atom", r[0], r[1]-1, r[2], name)
			}
		}
	}
}

// TestMemoryConfinement: every load/store in a generated program must
// be the tail of a KindMem atom addressing through xAddr, freshly
// masked into the scratch window.
func TestMemoryConfinement(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		p := Generate(rand.New(rand.NewSource(seed)), GenOptions{})
		for i, a := range p.Atoms {
			for j, in := range a.Insns {
				if !in.Op.IsLoad() && !in.Op.IsStore() {
					continue
				}
				if a.Kind != KindMem || j != len(a.Insns)-1 {
					t.Fatalf("seed %d atom %d: memory op outside KindMem tail", seed, i)
				}
				if in.Rs1 != xAddr || in.Imm < 0 || in.Imm > 7 {
					t.Fatalf("seed %d atom %d: unconfined access %v", seed, i, in)
				}
				mask, add := a.Insns[0], a.Insns[1]
				if mask.Op != isa.OpANDI || mask.Rd != xAddr || mask.Imm != offsetMask {
					t.Fatalf("seed %d atom %d: bad mask insn %v", seed, i, mask)
				}
				if add.Op != isa.OpADD || add.Rd != xAddr || add.Rs2 != xBase {
					t.Fatalf("seed %d atom %d: bad base add %v", seed, i, add)
				}
			}
		}
	}
}

// TestSubsetRemap: deleting atoms must remap control targets to the
// first surviving atom at or after the original target.
func TestSubsetRemap(t *testing.T) {
	nop := func() Atom {
		return Atom{Kind: KindPlain, Target: -1,
			Insns: []isa.Inst{{Op: isa.OpADDI, Rd: isa.Reg(10), Rs1: isa.Zero}}}
	}
	p := Prog{Atoms: []Atom{
		nop(), // 0
		{Kind: KindBranch, Target: 3, Insns: []isa.Inst{{Op: isa.OpBEQ}}}, // 1
		nop(), // 2
		nop(), // 3
		{Kind: KindHalt, Target: -1, Insns: []isa.Inst{{Op: isa.OpEBREAK}}}, // 4
	}}
	// Drop atom 3: the branch must retarget to the next survivor (halt).
	q := p.subset([]bool{true, true, true, false, true})
	if len(q.Atoms) != 4 {
		t.Fatalf("kept %d atoms, want 4", len(q.Atoms))
	}
	if got := q.Atoms[1].Target; got != 3 {
		t.Fatalf("branch target remapped to %d, want 3 (the halt)", got)
	}
	if _, err := q.resolve(); err != nil {
		t.Fatalf("subset does not resolve: %v", err)
	}
}

// buggyArch wraps the golden ISS but perturbs x10 whenever the program
// text contains a MUL — a synthetic divergence for exercising the
// minimizer end to end.
func buggyArch(t *testing.T) Arch {
	archs, err := SelectArchs("iss")
	if err != nil {
		t.Fatal(err)
	}
	golden := archs[0]
	return Arch{Name: "buggy", Run: func(ctx context.Context, img *mem.Image, b Budget) ArchResult {
		res := golden.Run(ctx, img, b)
		res.Arch = "buggy"
		for _, w := range img.Text {
			if in, err := isa.Decode(w); err == nil && in.Op == isa.OpMUL {
				res.X[10] ^= 1
				break
			}
		}
		return res
	}}
}

// TestShrinkMinimizesInjectedBug: with the buggy arch in the matrix,
// a program containing a MUL must shrink down to (nearly) just the MUL
// and the halt.
func TestShrinkMinimizesInjectedBug(t *testing.T) {
	issArchs, err := SelectArchs("iss")
	if err != nil {
		t.Fatal(err)
	}
	matrix := append(issArchs, buggyArch(t))

	// Find a seed whose program contains a MUL.
	var prog Prog
	var seed int64
	for seed = 1; ; seed++ {
		p := Generate(rand.New(rand.NewSource(seed)), GenOptions{})
		hasMul := false
		for _, a := range p.Atoms {
			for _, in := range a.Insns {
				if in.Op == isa.OpMUL {
					hasMul = true
				}
			}
		}
		if hasMul {
			prog = p
			break
		}
		if seed > 100 {
			t.Fatal("no MUL-containing program in 100 seeds")
		}
	}
	scratch := ScratchFromSeed(seed)
	ctx := context.Background()
	pred := func(p Prog) bool {
		img, err := p.Image(scratch)
		if err != nil {
			return false
		}
		_, divs := RunMatrix(ctx, matrix, img)
		return len(divs) > 0
	}
	if !pred(prog) {
		t.Fatalf("seed %d: injected bug did not reproduce", seed)
	}
	minp := Shrink(prog, pred)
	if !pred(minp) {
		t.Fatal("shrunk program no longer reproduces")
	}
	if n := minp.insnCount(); n > 4 {
		t.Errorf("minimized to %d instructions, want <= 4:\n%s", n, minp.Disassemble())
	}
	hasMul := false
	for _, a := range minp.Atoms {
		for _, in := range a.Insns {
			if in.Op == isa.OpMUL {
				hasMul = true
			}
		}
	}
	if !hasMul {
		t.Errorf("minimized program lost the MUL:\n%s", minp.Disassemble())
	}
}

// TestCampaignAgreesAndIsWorkerInvariant: a short full-matrix campaign
// must find no divergences, and its report must be byte-identical at
// 1 and 8 workers.
func TestCampaignAgreesAndIsWorkerInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("full-matrix campaign")
	}
	ctx := context.Background()
	opt := Options{Seed: 1, Trials: 25, Shrink: true}

	opt.Workers = 1
	r1, err := Run(ctx, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Workers = 8
	r8, err := Run(ctx, opt)
	if err != nil {
		t.Fatal(err)
	}
	if f1, f8 := r1.Format(), r8.Format(); f1 != f8 {
		t.Fatalf("report depends on worker count:\n-- workers=1 --\n%s\n-- workers=8 --\n%s", f1, f8)
	}
	if len(r1.GeneratorErr) > 0 {
		t.Fatalf("generator errors:\n%s", r1.Format())
	}
	if len(r1.Diverged) > 0 {
		t.Fatalf("architectures diverge:\n%s", r1.Format())
	}
	if r1.TotalInstret == 0 {
		t.Fatal("campaign retired no instructions")
	}
}

// TestEmitTestCase: emitted source must carry the corpus-entry shape
// and the resolved words.
func TestEmitTestCase(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := Generate(rng, GenOptions{MaxAtoms: 4})
	tr := TrialReport{
		Trial: 0, Seed: 7, ScratchSeed: 99, Min: &p,
		MinDivergences: []Divergence{{Arch: "ring", Kind: "reg", Detail: "x1 = 0, golden 1"}},
	}
	src, err := EmitTestCase(tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`Name:        "seed_7"`, "ScratchSeed: 99", "Text: []uint32{", "ring: reg"} {
		if !strings.Contains(src, want) {
			t.Errorf("emitted source missing %q:\n%s", want, src)
		}
	}
}

// TestCorpusReplays: every committed corpus entry must replay across
// the full matrix with no divergence beyond its waiver.
func TestCorpusReplays(t *testing.T) {
	for _, e := range Corpus() {
		t.Run(e.Name, func(t *testing.T) {
			golden, divs := e.Replay(context.Background())
			if golden.Err != "" {
				t.Fatalf("golden run failed: %s", golden.Err)
			}
			waived := make(map[string]bool, len(e.WaivedKinds))
			for _, k := range e.WaivedKinds {
				waived[k] = true
			}
			for _, d := range divs {
				if e.Waiver != "" && waived[d.Arch+":"+d.Kind] {
					continue
				}
				t.Errorf("unwaived divergence: %s", d)
			}
		})
	}
}
