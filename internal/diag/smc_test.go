package diag

import (
	"testing"

	"diag/internal/isa"
	"diag/internal/iss"
	"diag/internal/mem"
)

// Machine-level self-modifying-code coverage: the ring shares the ISS
// predecode cache, and its cluster I-buffers must not serve stale
// instructions either — a program that patches its own text must match
// the golden ISS exactly, and repeat runs must be cycle-identical.

// smcLoopImage is the same patch-in-a-loop kernel as the ISS
// differential test: iteration 1 runs `addi x10, x10, 1`, the loop body
// overwrites that word with `addi x10, x10, 100`, iterations 2–3 run
// the patched form, so the only correct final x10 is 201.
func smcLoopImage(t *testing.T) *mem.Image {
	t.Helper()
	const (
		text = 0x1000
		data = 0x2000
	)
	prog := []isa.Inst{
		{Op: isa.OpLUI, Rd: 6, Imm: text},
		{Op: isa.OpLUI, Rd: 9, Imm: data},
		{Op: isa.OpLW, Rd: 5, Rs1: 9, Imm: 0},
		{Op: isa.OpADDI, Rd: 8, Rs1: 0, Imm: 3},
		{Op: isa.OpADDI, Rd: 10, Rs1: 10, Imm: 1}, // loop: patch target
		{Op: isa.OpADDI, Rd: 7, Rs1: 7, Imm: 1},
		{Op: isa.OpSW, Rs1: 6, Rs2: 5, Imm: 16},
		{Op: isa.OpBLT, Rs1: 7, Rs2: 8, Imm: -12},
		{Op: isa.OpEBREAK},
	}
	img := &mem.Image{Entry: text, TextAddr: text}
	for _, in := range prog {
		w, err := isa.Encode(in)
		if err != nil {
			t.Fatalf("encode %v: %v", in, err)
		}
		img.Text = append(img.Text, w)
	}
	patch, err := isa.Encode(isa.Inst{Op: isa.OpADDI, Rd: 10, Rs1: 10, Imm: 100})
	if err != nil {
		t.Fatal(err)
	}
	img.Segments = []mem.Segment{{Addr: data, Data: []byte{
		byte(patch), byte(patch >> 8), byte(patch >> 16), byte(patch >> 24),
	}}}
	return img
}

func TestSelfModifyingCodeMatchesISS(t *testing.T) {
	img := smcLoopImage(t)

	gm := mem.New()
	entry, err := img.Load(gm)
	if err != nil {
		t.Fatal(err)
	}
	golden := iss.New(gm, entry)
	golden.Boot(0, 1) // match the machine's single ring
	golden.Run(100000)
	if golden.Err != nil {
		t.Fatalf("golden ISS: %v", golden.Err)
	}

	run := func() (*Machine, *iss.CPU) {
		mach, err := NewMachine(F4C2(), img)
		if err != nil {
			t.Fatal(err)
		}
		if err := mach.Run(); err != nil {
			t.Fatalf("machine run: %v", err)
		}
		return mach, mach.Ring(0).CPU()
	}

	mach, cpu := run()
	if cpu.X != golden.X {
		t.Errorf("registers diverge from golden ISS:\n  ring: %v\n  iss:  %v", cpu.X, golden.X)
	}
	if cpu.Instret != golden.Instret {
		t.Errorf("Instret %d, golden %d", cpu.Instret, golden.Instret)
	}
	if a, b := mach.Mem().Digest(), gm.Digest(); a != b {
		t.Errorf("memory digests diverge: %x vs %x", a, b)
	}
	if got := cpu.X[10]; got != 201 {
		t.Errorf("x10 = %d, want 201 — the ring executed a stale instruction", got)
	}

	// Timing determinism: the predecode layer must not perturb cycles
	// between identical runs.
	mach2, _ := run()
	if a, b := mach.Stats().Cycles, mach2.Stats().Cycles; a != b {
		t.Errorf("cycle counts diverge between identical runs: %d vs %d", a, b)
	}
}
