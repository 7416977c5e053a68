package asm

import (
	"strings"
	"testing"

	"diag/internal/isa"
	"diag/internal/iss"
	"diag/internal/mem"
)

// mustAssemble assembles or fails the test.
func mustAssemble(t *testing.T, src string) *mem.Image {
	t.Helper()
	img, err := Assemble(src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	return img
}

// execute runs an assembled image on the ISS until halt.
func execute(t *testing.T, src string) *iss.CPU {
	t.Helper()
	img := mustAssemble(t, src)
	m := mem.New()
	entry, err := img.Load(m)
	if err != nil {
		t.Fatal(err)
	}
	c := iss.New(m, entry)
	if n := c.Run(1_000_000); n == 1_000_000 {
		t.Fatal("program did not halt")
	}
	if c.Err != nil {
		t.Fatalf("abnormal halt: %v", c.Err)
	}
	return c
}

func TestBasicProgram(t *testing.T) {
	c := execute(t, `
		# compute 2+3
		addi a0, zero, 2
		addi a1, zero, 3
		add  a2, a0, a1
		ebreak
	`)
	if c.X[isa.A2] != 5 {
		t.Errorf("a2 = %d", c.X[isa.A2])
	}
}

func TestLabelsAndBranches(t *testing.T) {
	c := execute(t, `
		li   t0, 0
		li   t1, 5
	loop:
		addi t0, t0, 1
		blt  t0, t1, loop
		ebreak
	`)
	if c.X[isa.T0] != 5 {
		t.Errorf("t0 = %d", c.X[isa.T0])
	}
}

func TestForwardBranch(t *testing.T) {
	c := execute(t, `
		li   a0, 1
		beqz a0, skip
		li   a1, 10
	skip:
		li   a2, 20
		ebreak
	`)
	if c.X[isa.A1] != 10 || c.X[isa.A2] != 20 {
		t.Errorf("a1=%d a2=%d", c.X[isa.A1], c.X[isa.A2])
	}
}

func TestLiExpansions(t *testing.T) {
	c := execute(t, `
		li a0, 100          # 1 inst
		li a1, -2048        # 1 inst
		li a2, 0x12345678   # 2 inst
		li a3, -100000      # 2 inst
		li a4, 0xFFFFFFFF   # 2 inst
		ebreak
	`)
	if c.X[isa.A0] != 100 || int32(c.X[isa.A1]) != -2048 {
		t.Error("small li wrong")
	}
	if c.X[isa.A2] != 0x12345678 {
		t.Errorf("li 0x12345678 = 0x%x", c.X[isa.A2])
	}
	if int32(c.X[isa.A3]) != -100000 {
		t.Errorf("li -100000 = %d", int32(c.X[isa.A3]))
	}
	if c.X[isa.A4] != 0xFFFFFFFF {
		t.Errorf("li 0xFFFFFFFF = 0x%x", c.X[isa.A4])
	}
}

func TestDataSectionAndLa(t *testing.T) {
	c := execute(t, `
		.data
	vals:
		.word 10, 20, 30
	msg:
		.asciz "hi"
		.text
		la   t0, vals
		lw   a0, 0(t0)
		lw   a1, 4(t0)
		lw   a2, vals+8-vals(t0)   # expression arithmetic = offset 8
		la   t1, msg
		lbu  a3, 0(t1)
		ebreak
	`)
	if c.X[isa.A0] != 10 || c.X[isa.A1] != 20 || c.X[isa.A2] != 30 {
		t.Errorf("data loads: %d %d %d", c.X[isa.A0], c.X[isa.A1], c.X[isa.A2])
	}
	if c.X[isa.A3] != 'h' {
		t.Errorf("asciz: %c", c.X[isa.A3])
	}
}

func TestFloatData(t *testing.T) {
	c := execute(t, `
		.data
	fv: .float 1.5, -2.25
		.text
		la   t0, fv
		flw  fa0, 0(t0)
		flw  fa1, 4(t0)
		fadd.s fa2, fa0, fa1
		fmv.x.w a0, fa2
		ebreak
	`)
	if got := c.FReg(isa.A2 /* fa2 */); got != -0.75 {
		t.Errorf("fa2 = %v", got)
	}
}

func TestPseudoInstructions(t *testing.T) {
	c := execute(t, `
		li   a0, 7
		mv   a1, a0
		not  a2, a0
		neg  a3, a0
		seqz a4, zero
		snez a5, a0
		nop
		li   t0, 3
		li   t1, 5
		bgt  t1, t0, ok1
		li   s0, 99
	ok1:
		ble  t0, t1, ok2
		li   s1, 99
	ok2:
		j    done
		li   s2, 99
	done:
		ebreak
	`)
	if c.X[isa.A1] != 7 {
		t.Error("mv")
	}
	if c.X[isa.A2] != ^uint32(7) {
		t.Error("not")
	}
	if int32(c.X[isa.A3]) != -7 {
		t.Error("neg")
	}
	if c.X[isa.A4] != 1 || c.X[isa.A5] != 1 {
		t.Error("seqz/snez")
	}
	if c.X[isa.S0] != 0 || c.X[isa.S1] != 0 || c.X[isa.S2] != 0 {
		t.Error("branch pseudo-ops took wrong path")
	}
}

func TestCallRet(t *testing.T) {
	c := execute(t, `
		li   a0, 4
		call square
		mv   s0, a0
		ebreak
	square:
		mul  a0, a0, a0
		ret
	`)
	if c.X[isa.S0] != 16 {
		t.Errorf("call/ret: s0 = %d", c.X[isa.S0])
	}
}

func TestFPPseudo(t *testing.T) {
	c := execute(t, `
		li    a0, -3
		fcvt.s.w fa0, a0
		fabs.s   fa1, fa0
		fneg.s   fa2, fa1
		fmv.s    fa3, fa0
		fcvt.w.s a1, fa1
		ebreak
	`)
	if c.X[isa.A1] != 3 {
		t.Errorf("fabs chain: %d", c.X[isa.A1])
	}
	if c.FReg(isa.A2) != -3 || c.FReg(isa.A3) != -3 {
		t.Errorf("fneg/fmv: %v %v", c.FReg(isa.A2), c.FReg(isa.A3))
	}
}

func TestEquAndHiLo(t *testing.T) {
	c := execute(t, `
		.equ BASE, 0x20000
		.equ COUNT, 3
		li  a0, COUNT
		lui a1, %hi(BASE+4)
		addi a1, a1, %lo(BASE+4)
		ebreak
	`)
	if c.X[isa.A0] != 3 {
		t.Error("equ constant")
	}
	if c.X[isa.A1] != 0x20004 {
		t.Errorf("hi/lo: 0x%x", c.X[isa.A1])
	}
}

func TestHiLoNegativeLo(t *testing.T) {
	// Value whose low 12 bits are >= 0x800 requires the +0x800 carry fix.
	c := execute(t, `
		li a0, 0x12345FFF
		ebreak
	`)
	if c.X[isa.A0] != 0x12345FFF {
		t.Errorf("li with carry: 0x%x", c.X[isa.A0])
	}
}

func TestStartLabelEntry(t *testing.T) {
	img := mustAssemble(t, `
	helper:
		ret
	_start:
		li a0, 1
		ebreak
	`)
	if img.Entry == img.TextAddr {
		t.Error("entry should be _start, not text base")
	}
}

func TestOrgDirective(t *testing.T) {
	img := mustAssemble(t, `
		.org 0x4000
		nop
		ebreak
		.data
		.org 0x80000
		.word 1
	`)
	if img.TextAddr != 0x4000 {
		t.Errorf("text base 0x%x", img.TextAddr)
	}
	if len(img.Segments) != 1 || img.Segments[0].Addr != 0x80000 {
		t.Errorf("segments: %+v", img.Segments)
	}
}

func TestAlignDirective(t *testing.T) {
	img := mustAssemble(t, `
		.data
		.byte 1
		.align 2
	w:  .word 0x55
	`)
	data := img.Segments[0].Data
	if len(data) != 8 {
		t.Fatalf("data length = %d, want 8", len(data))
	}
	if data[4] != 0x55 {
		t.Error("aligned word misplaced")
	}
}

func TestSIMTAssembly(t *testing.T) {
	c := execute(t, `
		li   t0, 0     # rc
		li   t1, 1     # step
		li   t2, 4     # end
		li   a0, 0
	ls: simt.s t0, t1, t2, 1
		add  a0, a0, t0
		simt.e t0, t2, ls
		ebreak
	`)
	if c.X[isa.A0] != 0+1+2+3 {
		t.Errorf("simt loop sum = %d, want 6", c.X[isa.A0])
	}
}

func TestErrors(t *testing.T) {
	cases := []struct {
		name, src, frag string
	}{
		{"unknown mnemonic", "frobnicate a0", "unknown mnemonic"},
		{"bad register", "addi q0, zero, 1", "bad integer register"},
		{"undefined symbol", "li a0, nosuchsym", "undefined symbol"},
		{"duplicate label", "x:\nnop\nx:\nnop", "duplicate label"},
		{"wrong operand count", "add a0, a1", "wants 3 operands"},
		{"data in text", ".word 5", "outside .data"},
		{"text in data", ".data\nadd a0, a1, a2", "outside .text"},
		{"bad mem operand", "lw a0, a1", "bad memory operand"},
		{"unknown directive", ".bogus 1", "unknown directive"},
		{"org backwards", "nop\n.org 0x0", "backwards"},
		{"branch too far", "beq a0, a1, far\n.org 0x10000\nfar: nop", "out of range"},
		// A location counter past 0xFFFFFFFF fails on its own line
		// instead of wrapping to address 0.
		{"space wraps", ".data\n.org 0xfffffff0\n.space 0x20", "line 3: .space: location counter"},
		{"word wraps", ".data\n.org 0xfffffffc\n.word 1, 2", "line 3: .word: location counter"},
		{"align wraps", ".data\n.org 0xfffffff1\n.align 4", "line 3: .align: location counter"},
		{"text wraps", ".org 0xfffffff8\nnop\nnop", "line 3: nop: location counter"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Assemble(c.src)
			if err == nil {
				t.Fatalf("expected error containing %q", c.frag)
			}
			if !strings.Contains(err.Error(), c.frag) {
				t.Fatalf("error %q does not contain %q", err, c.frag)
			}
		})
	}
}

func TestErrorHasLineNumber(t *testing.T) {
	_, err := Assemble("nop\nnop\nbogus_mnemonic\n")
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("error should cite line 3: %v", err)
	}
}

func TestDisassemble(t *testing.T) {
	img := mustAssemble(t, `
		addi a0, zero, 5
		ebreak
	`)
	out := Disassemble(img)
	if !strings.Contains(out, "addi a0, zero, 5") || !strings.Contains(out, "ebreak") {
		t.Errorf("disassembly:\n%s", out)
	}
	// Undecodable word renders as .word.
	img.Text = append(img.Text, 0xFFFFFFFF)
	if !strings.Contains(Disassemble(img), ".word 0xffffffff") {
		t.Error("bad word should render as .word")
	}
}

// Round trip: assemble, disassemble, re-assemble, identical text.
func TestAssembleDisassembleRoundTrip(t *testing.T) {
	src := `
		li   t0, 1000
		li   t1, 0
	loop:
		add  t1, t1, t0
		addi t0, t0, -1
		bnez t0, loop
		slli t2, t1, 2
		sw   t2, 0x100(zero)
		flw  fa0, 0x100(zero)
		fcvt.s.w fa1, t1
		fmadd.s fa2, fa0, fa1, fa0
		ebreak
	`
	img := mustAssemble(t, src)
	dis := Disassemble(img)
	var lines []string
	for _, l := range strings.Split(dis, "\n") {
		parts := strings.SplitN(l, "  ", 3)
		if len(parts) == 3 {
			lines = append(lines, parts[2])
		}
	}
	img2, err := Assemble(strings.Join(lines, "\n"))
	if err != nil {
		t.Fatalf("reassemble: %v\n%s", err, strings.Join(lines, "\n"))
	}
	if len(img2.Text) != len(img.Text) {
		t.Fatalf("length mismatch %d vs %d", len(img2.Text), len(img.Text))
	}
	for i := range img.Text {
		if img.Text[i] != img2.Text[i] {
			t.Errorf("word %d: 0x%08x vs 0x%08x", i, img.Text[i], img2.Text[i])
		}
	}
}

func TestTrailingLabel(t *testing.T) {
	img := mustAssemble(t, `
		nop
	end:
	`)
	// 'end' should have an address just past the nop.
	_ = img
}

func TestCommentStyles(t *testing.T) {
	execute(t, `
		li a0, 1   # hash comment
		li a1, 2   // slash comment
		ebreak
	`)
}
