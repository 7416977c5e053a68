package asm

import (
	"runtime"
	"strings"
	"testing"

	"diag/internal/isa"
)

// Additional assembler coverage: directives, operand forms, and error
// paths not exercised by the main test file.

func TestSetDirectiveAliasesEqu(t *testing.T) {
	c := execute(t, `
		.set N, 12
		li a0, N
		ebreak
	`)
	if c.X[isa.A0] != 12 {
		t.Errorf("a0 = %d", c.X[isa.A0])
	}
}

func TestHalfAndByteData(t *testing.T) {
	c := execute(t, `
		.data
	h:	.half 0x1234, 0xBEEF
	b:	.byte 1, 2, 3, 250
		.text
		la  t0, h
		lhu a0, 0(t0)
		lhu a1, 2(t0)
		lbu a2, 4(t0)
		lbu a3, 7(t0)
		ebreak
	`)
	if c.X[isa.A0] != 0x1234 || c.X[isa.A1] != 0xBEEF {
		t.Errorf("halves: 0x%x 0x%x", c.X[isa.A0], c.X[isa.A1])
	}
	if c.X[isa.A2] != 1 || c.X[isa.A3] != 250 {
		t.Errorf("bytes: %d %d", c.X[isa.A2], c.X[isa.A3])
	}
}

func TestZeroAndSpace(t *testing.T) {
	img := mustAssemble(t, `
		.data
	a:	.zero 8
	b:	.space 4
	c:	.word 7
	`)
	if len(img.Segments[0].Data) != 16 {
		t.Errorf("data length %d", len(img.Segments[0].Data))
	}
	if img.Segments[0].Data[12] != 7 {
		t.Error("word after padding misplaced")
	}
}

func TestAsciiWithoutNul(t *testing.T) {
	img := mustAssemble(t, `
		.data
	s:	.ascii "ab"
	`)
	if len(img.Segments[0].Data) != 2 {
		t.Errorf(".ascii should not append NUL: %d bytes", len(img.Segments[0].Data))
	}
}

func TestCharLiteral(t *testing.T) {
	c := execute(t, `
		li a0, 'Z'
		ebreak
	`)
	if c.X[isa.A0] != 'Z' {
		t.Errorf("a0 = %d", c.X[isa.A0])
	}
}

func TestJalrTwoOperandForm(t *testing.T) {
	c := execute(t, `
		la   t0, target
		jalr ra, 0(t0)
		ebreak
	target:
		li   a0, 9
		jalr zero, ra, 0
	`)
	if c.X[isa.A0] != 9 {
		t.Errorf("a0 = %d", c.X[isa.A0])
	}
}

func TestJalOneOperand(t *testing.T) {
	c := execute(t, `
		jal  sub            # rd defaults to ra
		ebreak
	sub:
		li   a0, 3
		ret
	`)
	if c.X[isa.A0] != 3 {
		t.Errorf("a0 = %d", c.X[isa.A0])
	}
}

func TestTailPseudo(t *testing.T) {
	c := execute(t, `
		li   a0, 1
		tail over
		li   a0, 99
	over:
		ebreak
	`)
	if c.X[isa.A0] != 1 {
		t.Errorf("tail took wrong path: a0 = %d", c.X[isa.A0])
	}
}

func TestUnsignedBranchPseudo(t *testing.T) {
	c := execute(t, `
		li   t0, -1         # 0xFFFFFFFF: large unsigned
		li   t1, 1
		li   a0, 0
		bgtu t0, t1, big
		li   a0, 99
	big:
		bleu t1, t0, ok
		li   a0, 98
	ok:
		ebreak
	`)
	if c.X[isa.A0] != 0 {
		t.Errorf("unsigned branch pseudos wrong: a0 = %d", c.X[isa.A0])
	}
}

func TestSltzSgtz(t *testing.T) {
	c := execute(t, `
		li   t0, -5
		sltz a0, t0
		sgtz a1, t0
		li   t1, 5
		sltz a2, t1
		sgtz a3, t1
		ebreak
	`)
	if c.X[isa.A0] != 1 || c.X[isa.A1] != 0 || c.X[isa.A2] != 0 || c.X[isa.A3] != 1 {
		t.Errorf("sltz/sgtz: %d %d %d %d", c.X[isa.A0], c.X[isa.A1], c.X[isa.A2], c.X[isa.A3])
	}
}

func TestIgnoredGNUDirectives(t *testing.T) {
	mustAssemble(t, `
		.globl _start
		.type _start, @function
		.p2align 2
		.option nopic
	_start:
		nop
		ebreak
		.size _start, .-_start
	`)
}

func TestMoreErrors(t *testing.T) {
	cases := []struct {
		name, src, frag string
	}{
		{"bad float", ".data\n.float abc", "bad float"},
		{"bad string", ".data\n.asciz nope", "bad string"},
		{"equ wants two", ".equ X", "needs name, value"},
		{"org needs addr", ".org", "needs one address"},
		{"duplicate equ", ".equ A, 1\n.equ A, 2", "duplicate symbol"},
		{"bad fp register", "fadd.s q1, ft0, ft1", "bad FP register"},
		{"simt wants 4", "simt.s t0, t1, t2", "wants 4 operands"},
		{"jal too many", "jal a0, a1, a2", "1 or 2 operands"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Assemble(c.src)
			if err == nil || !strings.Contains(err.Error(), c.frag) {
				t.Fatalf("want error containing %q, got %v", c.frag, err)
			}
		})
	}
}

func TestSplitArgsRespectsQuotesAndParens(t *testing.T) {
	args := splitArgs(`a0, 4(sp), "x, y", 'c'`)
	if len(args) != 4 {
		t.Fatalf("args = %q", args)
	}
	if args[1] != "4(sp)" || args[2] != `"x, y"` {
		t.Errorf("args = %q", args)
	}
}

func TestLuiAcceptsPreShiftedAndRaw(t *testing.T) {
	c := execute(t, `
		lui a0, 0x12        # raw 20-bit
		lui a1, %hi(0x12000)
		ebreak
	`)
	if c.X[isa.A0] != 0x12000 || c.X[isa.A1] != 0x12000 {
		t.Errorf("lui forms: 0x%x 0x%x", c.X[isa.A0], c.X[isa.A1])
	}
}

func TestNegativeSymbolArithmetic(t *testing.T) {
	c := execute(t, `
		.equ BASE, 100
		li a0, BASE-30+5
		ebreak
	`)
	if c.X[isa.A0] != 75 {
		t.Errorf("a0 = %d", c.X[isa.A0])
	}
}

// Golden disassembly: guards output format against regressions.
func TestDisassemblyGolden(t *testing.T) {
	img := mustAssemble(t, `
		lw   a0, 8(sp)
		fmadd.s fa0, fa1, fa2, fa3
		bltu t0, t1, next
	next:
		jal  zero, next
	`)
	want := []string{
		"00001000:  00812503  lw a0, 8(sp)",
		"00001004:  68c58543  fmadd.s fa0, fa1, fa2, fa3",
		"00001008:  0062e263  bltu t0, t1, 4",
		"0000100c:  0000006f  jal zero, 0",
	}
	got := strings.Split(strings.TrimSpace(Disassemble(img)), "\n")
	if len(got) != len(want) {
		t.Fatalf("line count %d:\n%s", len(got), Disassemble(img))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d:\n got %q\nwant %q", i, got[i], want[i])
		}
	}
}

func TestAlignInText(t *testing.T) {
	img := mustAssemble(t, `
		nop
		.align 3            # align to 8: one nop pad
	target:
		nop
		ebreak
	`)
	if len(img.Text) != 4 {
		t.Fatalf("text words = %d, want 4 (nop, pad, nop, ebreak)", len(img.Text))
	}
	if img.Text[1] != 0x00000013 {
		t.Errorf("pad word = 0x%08x, want nop", img.Text[1])
	}
}

func TestOrgForwardInText(t *testing.T) {
	img := mustAssemble(t, `
		nop
		.org 0x1010
		ebreak
	`)
	if len(img.Text) != 5 {
		t.Fatalf("text words = %d, want 5", len(img.Text))
	}
	for i := 1; i < 4; i++ {
		if img.Text[i] != 0x00000013 {
			t.Errorf("pad %d not nop", i)
		}
	}
}

func TestMvAndNegOperandErrors(t *testing.T) {
	for _, src := range []string{
		"mv a0",         // wrong count
		"mv q0, a0",     // bad rd
		"mv a0, q1",     // bad rs
		"beqz q0, x",    // bad reg in branch pseudo
		"bgt a0, q1, x", // bad second reg
		"li q0, 1",      // bad rd in li
		"la q0, x",      // bad rd in la
		"jr q9",         // bad reg
		"fmv.s fa0, a0", // int reg where FP needed
	} {
		if _, err := Assemble(src); err == nil {
			t.Errorf("%q should fail", src)
		}
	}
}

func TestFormatRErrorsPropagate(t *testing.T) {
	for _, src := range []string{
		"add q0, a0, a1",
		"add a0, q0, a1",
		"add a0, a1, q0",
		"fmadd.s fa0, fa1, fa2, q3",
		"fsqrt.s fa0, q0",
		"lw a0, 0(q0)",
		"simt.s q0, t1, t2, 1",
		"simt.e t0, t1", // wrong operand count
	} {
		if _, err := Assemble(src); err == nil {
			t.Errorf("%q should fail", src)
		}
	}
}

// TestLargeGapAllocatesOnce pins the cost of a large .space or .org gap
// to one section-sized allocation: pass 1 only advances the location
// counter, and pass 2 fills sections presized from it.
func TestLargeGapAllocatesOnce(t *testing.T) {
	for _, src := range []string{
		".data\n.space 0x4000000\n.text\nebreak",
		"nop\n.org 0x4000000\nebreak",
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		img, err := Assemble(src)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		size := 4 * len(img.Text)
		for _, s := range img.Segments {
			size += len(s.Data)
		}
		if size < 63<<20 {
			t.Fatalf("%q: image is %d bytes, want about 64 MiB", src, size)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > uint64(size)*5/4 {
			t.Errorf("%q: allocated %d bytes for a %d-byte image, want at most 1.25x", src, got, size)
		}
	}
}
