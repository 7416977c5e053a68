package iss

import (
	"reflect"
	"testing"

	"diag/internal/isa"
	"diag/internal/mem"
)

// Self-modifying-code coverage for the predecode cache: a program that
// patches its own instruction words must behave identically with the
// cache enabled (default) and disabled (NoPredecode), and the patched
// instruction must actually take effect — a stale cached decode would
// silently execute the old instruction.

const (
	smcText = 0x1000 // text base of the test images
	smcData = 0x2000 // holds the encoded patch instruction word
)

// smcImage assembles prog at smcText with the encoded patch instruction
// planted at smcData, ready for the program to lw and sw into its own
// text.
func smcImage(t *testing.T, prog []isa.Inst, patch isa.Inst) *mem.Image {
	t.Helper()
	img := &mem.Image{Entry: smcText, TextAddr: smcText}
	for _, in := range prog {
		w, err := isa.Encode(in)
		if err != nil {
			t.Fatalf("encode %v: %v", in, err)
		}
		img.Text = append(img.Text, w)
	}
	w, err := isa.Encode(patch)
	if err != nil {
		t.Fatalf("encode patch %v: %v", patch, err)
	}
	img.Segments = []mem.Segment{{Addr: smcData, Data: []byte{
		byte(w), byte(w >> 8), byte(w >> 16), byte(w >> 24),
	}}}
	return img
}

// runSMC executes img to completion with the given predecode setting.
func runSMC(t *testing.T, img *mem.Image, noPredecode bool) *CPU {
	t.Helper()
	m := mem.New()
	entry, err := img.Load(m)
	if err != nil {
		t.Fatal(err)
	}
	c := New(m, entry)
	c.NoPredecode = noPredecode
	if n := c.Run(100000); n == 100000 {
		t.Fatal("program did not halt")
	}
	if c.Err != nil {
		t.Fatalf("abnormal halt: %v", c.Err)
	}
	return c
}

// assertSameState requires two runs to agree on every architectural
// observable.
func assertSameState(t *testing.T, with, without *CPU) {
	t.Helper()
	if with.X != without.X {
		t.Errorf("integer registers diverge:\n  predecode: %v\n  uncached:  %v", with.X, without.X)
	}
	if with.F != without.F {
		t.Errorf("FP registers diverge")
	}
	if with.PC != without.PC || with.Instret != without.Instret {
		t.Errorf("PC/Instret diverge: (0x%x, %d) vs (0x%x, %d)",
			with.PC, with.Instret, without.PC, without.Instret)
	}
	if a, b := with.Mem.Digest(), without.Mem.Digest(); a != b {
		t.Errorf("memory digests diverge: %x vs %x", a, b)
	}
}

// TestSMCPatchInLoop rewrites an instruction that has already executed
// (and is therefore predecoded): iteration 1 runs the original
// `addi x10, x10, 1`, then the loop body stores the patch over it, so
// iterations 2 and 3 must run `addi x10, x10, 100`. The final x10 of
// 201 is only reachable if the store invalidated the cached decode.
func TestSMCPatchInLoop(t *testing.T) {
	prog := []isa.Inst{
		{Op: isa.OpLUI, Rd: 6, Imm: smcText},      // x6 = text base
		{Op: isa.OpLUI, Rd: 9, Imm: smcData},      // x9 = data base
		{Op: isa.OpLW, Rd: 5, Rs1: 9, Imm: 0},     // x5 = patch word
		{Op: isa.OpADDI, Rd: 8, Rs1: 0, Imm: 3},   // x8 = iteration bound
		{Op: isa.OpADDI, Rd: 10, Rs1: 10, Imm: 1}, // loop: the patch target (index 4)
		{Op: isa.OpADDI, Rd: 7, Rs1: 7, Imm: 1},   // x7++
		{Op: isa.OpSW, Rs1: 6, Rs2: 5, Imm: 16},   // patch text word 4
		{Op: isa.OpBLT, Rs1: 7, Rs2: 8, Imm: -12}, // loop while x7 < 3
		{Op: isa.OpEBREAK},
	}
	patch := isa.Inst{Op: isa.OpADDI, Rd: 10, Rs1: 10, Imm: 100}

	with := runSMC(t, smcImage(t, prog, patch), false)
	without := runSMC(t, smcImage(t, prog, patch), true)
	assertSameState(t, with, without)
	if got := with.X[10]; got != 201 {
		t.Errorf("x10 = %d, want 201 (1 original + 2 patched iterations)", got)
	}
}

// TestSMCPatchAhead rewrites an instruction before its first execution:
// the predecode cache has never seen it, but the fill must observe the
// patched word, not the image's original.
func TestSMCPatchAhead(t *testing.T) {
	prog := []isa.Inst{
		{Op: isa.OpLUI, Rd: 6, Imm: smcText},
		{Op: isa.OpLUI, Rd: 9, Imm: smcData},
		{Op: isa.OpLW, Rd: 5, Rs1: 9, Imm: 0},
		{Op: isa.OpSW, Rs1: 6, Rs2: 5, Imm: 20},  // patch text word 5 below
		{Op: isa.OpADDI, Rd: 0, Rs1: 0, Imm: 0},  // nop
		{Op: isa.OpADDI, Rd: 10, Rs1: 0, Imm: 1}, // patched to li x10, 42
		{Op: isa.OpEBREAK},
	}
	patch := isa.Inst{Op: isa.OpADDI, Rd: 10, Rs1: 0, Imm: 42}

	with := runSMC(t, smcImage(t, prog, patch), false)
	without := runSMC(t, smcImage(t, prog, patch), true)
	assertSameState(t, with, without)
	if got := with.X[10]; got != 42 {
		t.Errorf("x10 = %d, want 42 (the patched instruction)", got)
	}
}

// TestPredecodeReusedCPUAfterReset: a CPU reused via Reset over a
// rewritten memory (the LaneSim scratch-machine pattern) must never
// replay a stale decode.
func TestPredecodeReusedCPUAfterReset(t *testing.T) {
	m := mem.New() // no MarkCode: every store conservatively invalidates
	c := New(m, 0)
	for i, in := range []isa.Inst{
		{Op: isa.OpADDI, Rd: 10, Rs1: 0, Imm: 7},
		{Op: isa.OpADDI, Rd: 10, Rs1: 0, Imm: 31},
	} {
		w, err := isa.Encode(in)
		if err != nil {
			t.Fatal(err)
		}
		m.StoreWord(0, w)
		c.Reset(0)
		c.Step()
		if c.Err != nil {
			t.Fatalf("step %d: %v", i, c.Err)
		}
		if got, want := c.X[10], uint32(in.Imm); got != want {
			t.Fatalf("step %d: x10 = %d, want %d (stale predecode?)", i, got, want)
		}
	}
}

// TestPredecodePagesOnFirstFill checks that the predecode table
// allocates a page only when a fill lands in it: a program whose text
// spans two pages (the jal crosses from 0x1000 to 0x1400, 256 entries
// on) owns exactly those two, every other slot still points at the
// shared empty page, and that page is never written. NoPredecode
// allocates none.
func TestPredecodePagesOnFirstFill(t *testing.T) {
	words := map[uint32]isa.Inst{
		smcText:         {Op: isa.OpADDI, Rd: isa.A0, Rs1: isa.Zero, Imm: 1},
		smcText + 4:     {Op: isa.OpJAL, Rd: isa.Zero, Imm: 0x400 - 4},
		smcText + 0x400: {Op: isa.OpEBREAK},
	}
	for _, noPredecode := range []bool{false, true} {
		m := mem.New()
		for addr, in := range words {
			w, err := isa.Encode(in)
			if err != nil {
				t.Fatal(err)
			}
			m.StoreWord(addr, w)
		}
		c := New(m, smcText)
		c.NoPredecode = noPredecode
		var ex Exec
		for !c.Halted {
			c.StepInto(&ex)
		}
		if c.Err != nil || c.X[isa.A0] != 1 {
			t.Fatalf("NoPredecode=%v: err %v, a0 = %d", noPredecode, c.Err, c.X[isa.A0])
		}
		var private []int
		for i, p := range c.pred {
			if p != &emptyPredPage {
				private = append(private, i)
			}
		}
		want := []int{4, 5} // (0x1000>>2)>>8 and (0x1400>>2)>>8
		if noPredecode {
			want = nil
		}
		if !reflect.DeepEqual(private, want) {
			t.Errorf("NoPredecode=%v: private pages %v, want %v", noPredecode, private, want)
		}
	}
	if emptyPredPage != (predPage{}) {
		t.Fatal("the shared empty predecode page was written")
	}
}
