package iss

import (
	"math"
	"testing"
	"testing/quick"

	"diag/internal/isa"
	"diag/internal/mem"
)

// run assembles the instruction list at 0x1000, executes until halt, and
// returns the CPU.
func run(t *testing.T, prog []isa.Inst) *CPU {
	t.Helper()
	c := load(t, prog)
	if n := c.Run(100000); n == 100000 {
		t.Fatal("program did not halt")
	}
	if c.Err != nil {
		t.Fatalf("abnormal halt: %v", c.Err)
	}
	return c
}

func load(t *testing.T, prog []isa.Inst) *CPU {
	t.Helper()
	img := &mem.Image{Entry: 0x1000, TextAddr: 0x1000}
	for _, in := range prog {
		w, err := isa.Encode(in)
		if err != nil {
			t.Fatalf("encode %v: %v", in, err)
		}
		img.Text = append(img.Text, w)
	}
	m := mem.New()
	entry, err := img.Load(m)
	if err != nil {
		t.Fatal(err)
	}
	return New(m, entry)
}

func TestBasicALU(t *testing.T) {
	c := run(t, []isa.Inst{
		{Op: isa.OpADDI, Rd: isa.A0, Rs1: isa.Zero, Imm: 5},
		{Op: isa.OpADDI, Rd: isa.A1, Rs1: isa.Zero, Imm: 7},
		{Op: isa.OpADD, Rd: isa.A2, Rs1: isa.A0, Rs2: isa.A1},
		{Op: isa.OpSUB, Rd: isa.A3, Rs1: isa.A0, Rs2: isa.A1},
		{Op: isa.OpXOR, Rd: isa.A4, Rs1: isa.A0, Rs2: isa.A1},
		{Op: isa.OpEBREAK},
	})
	if c.X[isa.A2] != 12 {
		t.Errorf("add: %d", c.X[isa.A2])
	}
	if int32(c.X[isa.A3]) != -2 {
		t.Errorf("sub: %d", int32(c.X[isa.A3]))
	}
	if c.X[isa.A4] != 2 {
		t.Errorf("xor: %d", c.X[isa.A4])
	}
	if c.Instret != 5 { // ebreak halts without retiring
		t.Errorf("instret = %d", c.Instret)
	}
}

func TestX0Hardwired(t *testing.T) {
	c := run(t, []isa.Inst{
		{Op: isa.OpADDI, Rd: isa.Zero, Rs1: isa.Zero, Imm: 99},
		{Op: isa.OpEBREAK},
	})
	if c.X[0] != 0 {
		t.Error("x0 must stay zero")
	}
}

func TestShifts(t *testing.T) {
	c := run(t, []isa.Inst{
		{Op: isa.OpADDI, Rd: isa.A0, Rs1: isa.Zero, Imm: -8},
		{Op: isa.OpSRAI, Rd: isa.A1, Rs1: isa.A0, Imm: 1},
		{Op: isa.OpSRLI, Rd: isa.A2, Rs1: isa.A0, Imm: 28},
		{Op: isa.OpSLLI, Rd: isa.A3, Rs1: isa.A0, Imm: 4},
		{Op: isa.OpEBREAK},
	})
	if int32(c.X[isa.A1]) != -4 {
		t.Errorf("srai: %d", int32(c.X[isa.A1]))
	}
	if c.X[isa.A2] != 0xF {
		t.Errorf("srli: %x", c.X[isa.A2])
	}
	if c.X[isa.A3] != uint32(0xFFFFFF80) {
		t.Errorf("slli: %x", c.X[isa.A3])
	}
}

func TestBranchesAndLoop(t *testing.T) {
	// sum = 0; for i = 0; i < 10; i++ { sum += i }
	c := run(t, []isa.Inst{
		{Op: isa.OpADDI, Rd: isa.A0, Rs1: isa.Zero, Imm: 0},   // sum
		{Op: isa.OpADDI, Rd: isa.A1, Rs1: isa.Zero, Imm: 0},   // i
		{Op: isa.OpADDI, Rd: isa.A2, Rs1: isa.Zero, Imm: 10},  // n
		{Op: isa.OpADD, Rd: isa.A0, Rs1: isa.A0, Rs2: isa.A1}, // loop:
		{Op: isa.OpADDI, Rd: isa.A1, Rs1: isa.A1, Imm: 1},
		{Op: isa.OpBLT, Rs1: isa.A1, Rs2: isa.A2, Imm: -8},
		{Op: isa.OpEBREAK},
	})
	if c.X[isa.A0] != 45 {
		t.Errorf("loop sum = %d, want 45", c.X[isa.A0])
	}
}

func TestJALAndJALR(t *testing.T) {
	c := run(t, []isa.Inst{
		{Op: isa.OpJAL, Rd: isa.RA, Imm: 12},                // 0x1000: call +12 -> 0x100c
		{Op: isa.OpADDI, Rd: isa.A0, Rs1: isa.Zero, Imm: 1}, // 0x1004: executed after return
		{Op: isa.OpEBREAK},                                  // 0x1008
		{Op: isa.OpADDI, Rd: isa.A1, Rs1: isa.Zero, Imm: 2}, // 0x100c: callee
		{Op: isa.OpJALR, Rd: isa.Zero, Rs1: isa.RA, Imm: 0}, // ret
	})
	if c.X[isa.A0] != 1 || c.X[isa.A1] != 2 {
		t.Errorf("call/ret: a0=%d a1=%d", c.X[isa.A0], c.X[isa.A1])
	}
	if c.X[isa.RA] != 0x1004 {
		t.Errorf("ra = 0x%x", c.X[isa.RA])
	}
}

func TestLoadsStores(t *testing.T) {
	c := load(t, []isa.Inst{
		{Op: isa.OpLUI, Rd: isa.A0, Imm: 0x8000},             // a0 = 0x8000
		{Op: isa.OpADDI, Rd: isa.A1, Rs1: isa.Zero, Imm: -1}, // a1 = 0xFFFFFFFF
		{Op: isa.OpSW, Rs1: isa.A0, Rs2: isa.A1, Imm: 0},
		{Op: isa.OpADDI, Rd: isa.A2, Rs1: isa.Zero, Imm: 0x55},
		{Op: isa.OpSB, Rs1: isa.A0, Rs2: isa.A2, Imm: 1},
		{Op: isa.OpLW, Rd: isa.A3, Rs1: isa.A0, Imm: 0},
		{Op: isa.OpLB, Rd: isa.A4, Rs1: isa.A0, Imm: 3},
		{Op: isa.OpLBU, Rd: isa.A5, Rs1: isa.A0, Imm: 3},
		{Op: isa.OpLH, Rd: isa.A6, Rs1: isa.A0, Imm: 0},
		{Op: isa.OpLHU, Rd: isa.A7, Rs1: isa.A0, Imm: 0},
		{Op: isa.OpSH, Rs1: isa.A0, Rs2: isa.A2, Imm: 4},
		{Op: isa.OpEBREAK},
	})
	c.Run(100)
	if c.Err != nil {
		t.Fatal(c.Err)
	}
	if c.X[isa.A3] != 0xFFFF55FF {
		t.Errorf("lw after sb: 0x%x", c.X[isa.A3])
	}
	if int32(c.X[isa.A4]) != -1 {
		t.Errorf("lb: %d", int32(c.X[isa.A4]))
	}
	if c.X[isa.A5] != 0xFF {
		t.Errorf("lbu: 0x%x", c.X[isa.A5])
	}
	if int32(c.X[isa.A6]) != 0x55FF {
		t.Errorf("lh: 0x%x", c.X[isa.A6])
	}
	if c.X[isa.A7] != 0x55FF {
		t.Errorf("lhu: 0x%x", c.X[isa.A7])
	}
	if c.Mem.LoadHalf(0x8004) != 0x55 {
		t.Errorf("sh: 0x%x", c.Mem.LoadHalf(0x8004))
	}
}

func TestMulDiv(t *testing.T) {
	c := run(t, []isa.Inst{
		{Op: isa.OpADDI, Rd: isa.A0, Rs1: isa.Zero, Imm: -7},
		{Op: isa.OpADDI, Rd: isa.A1, Rs1: isa.Zero, Imm: 3},
		{Op: isa.OpMUL, Rd: isa.A2, Rs1: isa.A0, Rs2: isa.A1},
		{Op: isa.OpMULH, Rd: isa.A3, Rs1: isa.A0, Rs2: isa.A1},
		{Op: isa.OpMULHU, Rd: isa.A4, Rs1: isa.A0, Rs2: isa.A1},
		{Op: isa.OpDIV, Rd: isa.A5, Rs1: isa.A0, Rs2: isa.A1},
		{Op: isa.OpREM, Rd: isa.A6, Rs1: isa.A0, Rs2: isa.A1},
		{Op: isa.OpDIVU, Rd: isa.A7, Rs1: isa.A0, Rs2: isa.A1},
		{Op: isa.OpEBREAK},
	})
	if int32(c.X[isa.A2]) != -21 {
		t.Errorf("mul: %d", int32(c.X[isa.A2]))
	}
	if int32(c.X[isa.A3]) != -1 {
		t.Errorf("mulh: %d", int32(c.X[isa.A3]))
	}
	if c.X[isa.A4] != uint32(uint64(uint32(0xFFFFFFF9))*3>>32) {
		t.Errorf("mulhu: %d", c.X[isa.A4])
	}
	if int32(c.X[isa.A5]) != -2 {
		t.Errorf("div: %d", int32(c.X[isa.A5]))
	}
	if int32(c.X[isa.A6]) != -1 {
		t.Errorf("rem: %d", int32(c.X[isa.A6]))
	}
	if c.X[isa.A7] != 0xFFFFFFF9/3 {
		t.Errorf("divu: %d", c.X[isa.A7])
	}
}

func TestDivisionEdgeCases(t *testing.T) {
	c := run(t, []isa.Inst{
		{Op: isa.OpADDI, Rd: isa.A0, Rs1: isa.Zero, Imm: 7},
		{Op: isa.OpDIV, Rd: isa.A1, Rs1: isa.A0, Rs2: isa.Zero},  // div by 0 -> -1
		{Op: isa.OpREM, Rd: isa.A2, Rs1: isa.A0, Rs2: isa.Zero},  // rem by 0 -> rs1
		{Op: isa.OpDIVU, Rd: isa.A3, Rs1: isa.A0, Rs2: isa.Zero}, // -> all ones
		{Op: isa.OpREMU, Rd: isa.A4, Rs1: isa.A0, Rs2: isa.Zero}, // -> rs1
		{Op: isa.OpLUI, Rd: isa.A5, Imm: -2147483648},            // MinInt32
		{Op: isa.OpADDI, Rd: isa.A6, Rs1: isa.Zero, Imm: -1},
		{Op: isa.OpDIV, Rd: isa.A7, Rs1: isa.A5, Rs2: isa.A6}, // overflow -> MinInt32
		{Op: isa.OpREM, Rd: isa.T0, Rs1: isa.A5, Rs2: isa.A6}, // overflow -> 0
		{Op: isa.OpEBREAK},
	})
	if int32(c.X[isa.A1]) != -1 || c.X[isa.A2] != 7 || c.X[isa.A3] != ^uint32(0) || c.X[isa.A4] != 7 {
		t.Errorf("div-by-zero: %v %v %v %v", int32(c.X[isa.A1]), c.X[isa.A2], c.X[isa.A3], c.X[isa.A4])
	}
	if c.X[isa.A7] != 0x80000000 || c.X[isa.T0] != 0 {
		t.Errorf("overflow: 0x%x %d", c.X[isa.A7], c.X[isa.T0])
	}
}

func TestFloatArith(t *testing.T) {
	c := load(t, []isa.Inst{
		{Op: isa.OpLUI, Rd: isa.A0, Imm: 0x8000},
		{Op: isa.OpFLW, Rd: 0, Rs1: isa.A0, Imm: 0},
		{Op: isa.OpFLW, Rd: 1, Rs1: isa.A0, Imm: 4},
		{Op: isa.OpFADDS, Rd: 2, Rs1: 0, Rs2: 1},
		{Op: isa.OpFMULS, Rd: 3, Rs1: 0, Rs2: 1},
		{Op: isa.OpFSUBS, Rd: 4, Rs1: 0, Rs2: 1},
		{Op: isa.OpFDIVS, Rd: 5, Rs1: 0, Rs2: 1},
		{Op: isa.OpFSQRTS, Rd: 6, Rs1: 0},
		{Op: isa.OpFMADDS, Rd: 7, Rs1: 0, Rs2: 1, Rs3: 2},
		{Op: isa.OpFSW, Rs1: isa.A0, Rs2: 2, Imm: 8},
		{Op: isa.OpEBREAK},
	})
	c.Mem.StoreFloat32(0x8000, 9.0)
	c.Mem.StoreFloat32(0x8004, 2.0)
	c.Run(100)
	if c.Err != nil {
		t.Fatal(c.Err)
	}
	checks := []struct {
		f    isa.Reg
		want float32
	}{{2, 11}, {3, 18}, {4, 7}, {5, 4.5}, {6, 3}, {7, 29}}
	for _, ck := range checks {
		if got := c.FReg(ck.f); got != ck.want {
			t.Errorf("f%d = %v, want %v", ck.f, got, ck.want)
		}
	}
	if c.Mem.LoadFloat32(0x8008) != 11 {
		t.Error("fsw result wrong")
	}
}

func TestFloatCompareConvertMove(t *testing.T) {
	c := run(t, []isa.Inst{
		{Op: isa.OpADDI, Rd: isa.A0, Rs1: isa.Zero, Imm: -3},
		{Op: isa.OpFCVTSW, Rd: 0, Rs1: isa.A0}, // f0 = -3.0
		{Op: isa.OpADDI, Rd: isa.A1, Rs1: isa.Zero, Imm: 5},
		{Op: isa.OpFCVTSWU, Rd: 1, Rs1: isa.A1},      // f1 = 5.0
		{Op: isa.OpFLTS, Rd: isa.A2, Rs1: 0, Rs2: 1}, // -3 < 5 -> 1
		{Op: isa.OpFLES, Rd: isa.A3, Rs1: 1, Rs2: 0}, // 5 <= -3 -> 0
		{Op: isa.OpFEQS, Rd: isa.A4, Rs1: 0, Rs2: 0}, // 1
		{Op: isa.OpFCVTWS, Rd: isa.A5, Rs1: 0},       // -3
		{Op: isa.OpFMVXW, Rd: isa.A6, Rs1: 1},        // bits of 5.0
		{Op: isa.OpFMVWX, Rd: 2, Rs1: isa.A6},        // f2 = 5.0
		{Op: isa.OpFSGNJNS, Rd: 3, Rs1: 1, Rs2: 1},   // f3 = -5.0
		{Op: isa.OpFSGNJXS, Rd: 4, Rs1: 3, Rs2: 3},   // f4 = +5.0
		{Op: isa.OpFMINS, Rd: 5, Rs1: 0, Rs2: 1},     // -3
		{Op: isa.OpFMAXS, Rd: 6, Rs1: 0, Rs2: 1},     // 5
		{Op: isa.OpEBREAK},
	})
	if c.X[isa.A2] != 1 || c.X[isa.A3] != 0 || c.X[isa.A4] != 1 {
		t.Errorf("fp compares: %d %d %d", c.X[isa.A2], c.X[isa.A3], c.X[isa.A4])
	}
	if int32(c.X[isa.A5]) != -3 {
		t.Errorf("fcvt.w.s: %d", int32(c.X[isa.A5]))
	}
	if c.X[isa.A6] != math.Float32bits(5.0) {
		t.Errorf("fmv.x.w: 0x%x", c.X[isa.A6])
	}
	if c.FReg(2) != 5.0 || c.FReg(3) != -5.0 || c.FReg(4) != 5.0 {
		t.Errorf("sign inject: %v %v %v", c.FReg(2), c.FReg(3), c.FReg(4))
	}
	if c.FReg(5) != -3 || c.FReg(6) != 5 {
		t.Errorf("min/max: %v %v", c.FReg(5), c.FReg(6))
	}
}

func TestFClass(t *testing.T) {
	cases := []struct {
		bits uint32
		want uint32
	}{
		{math.Float32bits(float32(math.Inf(-1))), 1 << 0},
		{math.Float32bits(-1.5), 1 << 1},
		{0x80000001, 1 << 2}, // negative subnormal
		{0x80000000, 1 << 3}, // -0
		{0x00000000, 1 << 4}, // +0
		{0x00000001, 1 << 5}, // positive subnormal
		{math.Float32bits(1.5), 1 << 6},
		{math.Float32bits(float32(math.Inf(1))), 1 << 7},
		{0x7F800001, 1 << 8}, // signaling NaN
		{0x7FC00000, 1 << 9}, // quiet NaN
	}
	for _, ck := range cases {
		if got := fclass(ck.bits); got != ck.want {
			t.Errorf("fclass(0x%08x) = 0x%x, want 0x%x", ck.bits, got, ck.want)
		}
	}
}

func TestFMinMaxNaN(t *testing.T) {
	nan := float32(math.NaN())
	if fminmax(nan, 2, true) != 2 {
		t.Error("fmin(NaN, 2) should be 2")
	}
	if fminmax(2, nan, false) != 2 {
		t.Error("fmax(2, NaN) should be 2")
	}
	got := fminmax(nan, nan, true)
	if math.Float32bits(got) != 0x7FC00000 {
		t.Errorf("fmin(NaN,NaN) = 0x%x, want canonical NaN", math.Float32bits(got))
	}
	if fminmax(float32(math.Copysign(0, -1)), 0, true) != float32(math.Copysign(0, -1)) {
		t.Log("fmin(-0,+0) returns -0: ok")
	}
}

func TestCvtSaturation(t *testing.T) {
	if cvtWS(float32(math.NaN())) != math.MaxInt32 {
		t.Error("cvt.w.s(NaN) must saturate to MaxInt32")
	}
	if cvtWS(1e20) != math.MaxInt32 || cvtWS(-1e20) != math.MinInt32 {
		t.Error("cvt.w.s saturation failed")
	}
	if cvtWS(-2.9) != -2 {
		t.Error("cvt.w.s must truncate toward zero")
	}
	if cvtWUS(-1) != 0 || cvtWUS(1e20) != math.MaxUint32 {
		t.Error("cvt.wu.s saturation failed")
	}
}

func TestECallHaltsWithError(t *testing.T) {
	c := load(t, []isa.Inst{{Op: isa.OpECALL}})
	c.Run(10)
	if !c.Halted || c.Err == nil {
		t.Error("ecall must halt with error")
	}
}

func TestIllegalInstructionHalts(t *testing.T) {
	m := mem.New()
	m.StoreWord(0x1000, 0xFFFFFFFF)
	c := New(m, 0x1000)
	c.Run(10)
	if !c.Halted || c.Err == nil {
		t.Error("illegal instruction must halt with error")
	}
}

func TestMisalignedAccessHalts(t *testing.T) {
	c := load(t, []isa.Inst{
		{Op: isa.OpADDI, Rd: isa.A0, Rs1: isa.Zero, Imm: 2},
		{Op: isa.OpLW, Rd: isa.A1, Rs1: isa.A0, Imm: 0},
	})
	c.Run(10)
	if !c.Halted || c.Err == nil {
		t.Error("misaligned lw must halt with error")
	}
}

func TestSIMTLoopSequentialSemantics(t *testing.T) {
	// simt region: for (i = 0; i < 8; i += 2) { sum += i }
	c := run(t, []isa.Inst{
		{Op: isa.OpADDI, Rd: isa.T0, Rs1: isa.Zero, Imm: 0},             // 0x1000 rc = 0
		{Op: isa.OpADDI, Rd: isa.T1, Rs1: isa.Zero, Imm: 2},             // 0x1004 step
		{Op: isa.OpADDI, Rd: isa.T2, Rs1: isa.Zero, Imm: 8},             // 0x1008 end
		{Op: isa.OpADDI, Rd: isa.A0, Rs1: isa.Zero, Imm: 0},             // 0x100c sum = 0
		{Op: isa.OpSIMTS, Rd: isa.T0, Rs1: isa.T1, Rs2: isa.T2, Imm: 1}, // 0x1010
		{Op: isa.OpADD, Rd: isa.A0, Rs1: isa.A0, Rs2: isa.T0},           // 0x1014 body
		{Op: isa.OpSIMTE, Rd: isa.T0, Rs1: isa.T2, Imm: -8},             // 0x1018
		{Op: isa.OpEBREAK},
	})
	// iterations with rc = 0, 2, 4, 6: sum = 12
	if c.X[isa.A0] != 12 {
		t.Errorf("simt loop sum = %d, want 12", c.X[isa.A0])
	}
	if c.X[isa.T0] != 8 {
		t.Errorf("rc after loop = %d, want 8", c.X[isa.T0])
	}
}

func TestSIMTEWithoutSBails(t *testing.T) {
	c := load(t, []isa.Inst{
		{Op: isa.OpSIMTE, Rd: isa.T0, Rs1: isa.T2, Imm: -8},
	})
	c.Run(10)
	if !c.Halted || c.Err == nil {
		t.Error("simt.e without matching simt.s must halt with error")
	}
}

func TestStepOnHaltedCPUIsNoop(t *testing.T) {
	c := run(t, []isa.Inst{{Op: isa.OpEBREAK}})
	pc := c.PC
	n := c.Instret
	c.Step()
	if c.PC != pc || c.Instret != n {
		t.Error("Step on halted CPU must not change state")
	}
}

func TestReset(t *testing.T) {
	c := run(t, []isa.Inst{
		{Op: isa.OpADDI, Rd: isa.A0, Rs1: isa.Zero, Imm: 9},
		{Op: isa.OpEBREAK},
	})
	c.Reset(0x1000)
	if c.Halted || c.X[isa.A0] != 0 || c.PC != 0x1000 || c.Instret != 0 {
		t.Error("Reset did not restore initial state")
	}
}

func TestExecRecord(t *testing.T) {
	c := load(t, []isa.Inst{
		{Op: isa.OpADDI, Rd: isa.A0, Rs1: isa.Zero, Imm: 0x700},
		{Op: isa.OpSW, Rs1: isa.A0, Rs2: isa.Zero, Imm: 4},
		{Op: isa.OpBEQ, Rs1: isa.Zero, Rs2: isa.Zero, Imm: 8},
		{Op: isa.OpEBREAK},
		{Op: isa.OpEBREAK},
	})
	e1 := c.Step()
	if e1.PC != 0x1000 || e1.NextPC != 0x1004 || e1.Taken {
		t.Errorf("addi exec record: %+v", e1)
	}
	e2 := c.Step()
	if e2.MemAddr != 0x704 {
		t.Errorf("sw MemAddr = 0x%x", e2.MemAddr)
	}
	e3 := c.Step()
	if !e3.Taken || e3.NextPC != 0x1010 {
		t.Errorf("beq exec record: %+v", e3)
	}
}

// Property test: MULH consistency — (a*b) as 64-bit == MUL | MULH<<32.
func TestMulhConsistencyQuick(t *testing.T) {
	f := func(a, b int32) bool {
		lo := uint32(a) * uint32(b)
		hi := uint32(uint64(int64(a)*int64(b)) >> 32)
		full := int64(a) * int64(b)
		return uint32(full) == lo && uint32(uint64(full)>>32) == hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property test: div/rem invariant a == div*b + rem for all non-zero b
// without overflow.
func TestDivRemInvariantQuick(t *testing.T) {
	f := func(a, b int32) bool {
		if b == 0 || (a == math.MinInt32 && b == -1) {
			return true
		}
		d := int32(divS(uint32(a), uint32(b)))
		r := int32(remS(uint32(a), uint32(b)))
		return a == d*b+r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestStepIntoOverwritesRecord: step primes the Exec record field by
// field, so every field must be written on every step, whatever the
// scratch held before — a taken jump's Taken and a store's MemAddr
// must not leak into the next instruction's record.
func TestStepIntoOverwritesRecord(t *testing.T) {
	prog := []isa.Inst{
		{Op: isa.OpADDI, Rd: isa.A0, Rs1: isa.Zero, Imm: 0x100},
		{Op: isa.OpSW, Rs1: isa.A0, Rs2: isa.A0, Imm: 4},
		{Op: isa.OpJAL, Rd: isa.Zero, Imm: 4},
		{Op: isa.OpADDI, Rd: isa.A1, Rs1: isa.A0, Imm: 1},
		{Op: isa.OpEBREAK},
	}
	c := load(t, prog)
	dirty := Exec{PC: ^uint32(0), Inst: isa.Inst{Op: isa.OpLW, Rd: 9, Rs1: 9, Rs2: 9, Rs3: 9, Imm: -1},
		NextPC: ^uint32(0), Taken: true, MemAddr: ^uint32(0)}
	want := []Exec{
		{PC: 0x1000, Inst: prog[0], NextPC: 0x1004},
		{PC: 0x1004, Inst: prog[1], NextPC: 0x1008, MemAddr: 0x104},
		{PC: 0x1008, Inst: prog[2], NextPC: 0x100c, Taken: true},
		{PC: 0x100c, Inst: prog[3], NextPC: 0x1010},
	}
	var ex Exec
	for i, w := range want {
		if i%2 == 0 {
			ex = dirty
		}
		c.StepInto(&ex)
		if ex != w {
			t.Fatalf("step %d: got %+v, want %+v", i, ex, w)
		}
	}
}
