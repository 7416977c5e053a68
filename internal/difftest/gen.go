package difftest

import (
	"math/rand"

	"diag/internal/isa"
	"diag/internal/mem"
)

// GenOptions parameterize the random program generator.
type GenOptions struct {
	// MaxAtoms bounds the number of body atoms (default 40; the
	// prologue and halt come on top).
	MaxAtoms int
}

func (o GenOptions) normalize() GenOptions {
	if o.MaxAtoms <= 0 {
		o.MaxAtoms = 40
	}
	return o
}

// pool is the set of registers the generator draws operands and
// destinations from: everything except x0 and the reserved registers
// (scratch base, address temp, loop counters and bounds). gp/tp are
// included deliberately — every arch in the matrix boots them
// identically (tp=0, gp=1), so overwriting or reading them is as good
// a differential probe as any other register.
var pool = func() []isa.Reg {
	var rs []isa.Reg
	for r := isa.Reg(1); r < isa.NumRegs; r++ {
		switch r {
		case xBase, xAddr, ctrReg0, ctrReg1, boundReg0, boundReg1:
			continue
		}
		rs = append(rs, r)
	}
	return rs
}()

// Weighted instruction-mix tables. The mix leans integer-ALU like the
// paper's workloads but keeps every RV32IM class hot enough that a few
// hundred trials exercise each one.
var (
	aluRegOps = []isa.Op{
		isa.OpADD, isa.OpSUB, isa.OpSLL, isa.OpSLT, isa.OpSLTU,
		isa.OpXOR, isa.OpSRL, isa.OpSRA, isa.OpOR, isa.OpAND,
	}
	aluImmOps = []isa.Op{
		isa.OpADDI, isa.OpSLTI, isa.OpSLTIU, isa.OpXORI, isa.OpORI, isa.OpANDI,
	}
	shiftImmOps = []isa.Op{isa.OpSLLI, isa.OpSRLI, isa.OpSRAI}
	mulOps      = []isa.Op{isa.OpMUL, isa.OpMULH, isa.OpMULHSU, isa.OpMULHU}
	divOps      = []isa.Op{isa.OpDIV, isa.OpDIVU, isa.OpREM, isa.OpREMU}
	loadOps     = []isa.Op{isa.OpLW, isa.OpLW, isa.OpLH, isa.OpLHU, isa.OpLB, isa.OpLBU}
	storeOps    = []isa.Op{isa.OpSW, isa.OpSW, isa.OpSH, isa.OpSB}
	branchOps   = []isa.Op{
		isa.OpBEQ, isa.OpBNE, isa.OpBLT, isa.OpBGE, isa.OpBLTU, isa.OpBGEU,
	}
)

// gen carries one generation run.
type gen struct {
	rng  *rand.Rand
	prog Prog
	// open loops: atom index of the first body atom, by nesting depth.
	loops []int
}

func (g *gen) reg() isa.Reg { return pool[g.rng.Intn(len(pool))] }

func (g *gen) imm12() int32 { return int32(g.rng.Intn(4096)) - 2048 }

func (g *gen) plain(insns ...isa.Inst) {
	g.prog.Atoms = append(g.prog.Atoms, Atom{Kind: KindPlain, Insns: insns, Target: -1})
}

// Generate builds a random, guaranteed-terminating RV32IM program from
// rng. Equal seeds produce identical programs: the generator consumes
// rng in one fixed order and nothing else.
func Generate(rng *rand.Rand, opt GenOptions) Prog {
	opt = opt.normalize()
	g := &gen{rng: rng}
	g.prog.Atoms = make([]Atom, 0, opt.MaxAtoms+12)

	// Prologue: point xBase at the scratch window and give a few pool
	// registers interesting values (large via LUI, small via ADDI).
	g.plain(isa.Inst{Op: isa.OpLUI, Rd: xBase, Imm: ScratchBase})
	for i := 0; i < 6; i++ {
		r := g.reg()
		if g.rng.Intn(2) == 0 {
			g.plain(isa.Inst{Op: isa.OpLUI, Rd: r, Imm: int32(g.rng.Intn(1<<20)) << 12})
		} else {
			g.plain(isa.Inst{Op: isa.OpADDI, Rd: r, Rs1: isa.Zero, Imm: g.imm12()})
		}
	}

	body := opt.MaxAtoms
	for i := 0; i < body; i++ {
		g.step(body - i)
	}
	// Close any loop still open, then halt.
	for len(g.loops) > 0 {
		g.closeLoop()
	}
	g.prog.Atoms = append(g.prog.Atoms, Atom{Kind: KindHalt,
		Insns: []isa.Inst{{Op: isa.OpEBREAK}}, Target: -1})
	return g.prog
}

// step emits one random atom. remaining is how many body slots are
// left, which gates opening new loops near the end.
func (g *gen) step(remaining int) {
	r := g.rng.Intn(100)
	switch {
	case r < 26: // ALU reg-reg
		op := aluRegOps[g.rng.Intn(len(aluRegOps))]
		g.plain(isa.Inst{Op: op, Rd: g.reg(), Rs1: g.reg(), Rs2: g.reg()})
	case r < 46: // ALU immediate
		op := aluImmOps[g.rng.Intn(len(aluImmOps))]
		g.plain(isa.Inst{Op: op, Rd: g.reg(), Rs1: g.reg(), Imm: g.imm12()})
	case r < 52: // shift immediate
		op := shiftImmOps[g.rng.Intn(len(shiftImmOps))]
		g.plain(isa.Inst{Op: op, Rd: g.reg(), Rs1: g.reg(), Imm: int32(g.rng.Intn(32))})
	case r < 57: // LUI / AUIPC
		if g.rng.Intn(2) == 0 {
			g.plain(isa.Inst{Op: isa.OpLUI, Rd: g.reg(), Imm: int32(g.rng.Intn(1<<20)) << 12})
		} else {
			g.plain(isa.Inst{Op: isa.OpAUIPC, Rd: g.reg(), Imm: int32(g.rng.Intn(1<<20)) << 12})
		}
	case r < 65: // multiply
		op := mulOps[g.rng.Intn(len(mulOps))]
		g.plain(isa.Inst{Op: op, Rd: g.reg(), Rs1: g.reg(), Rs2: g.reg()})
	case r < 70: // divide / remainder (div-by-zero arises naturally)
		op := divOps[g.rng.Intn(len(divOps))]
		g.plain(isa.Inst{Op: op, Rd: g.reg(), Rs1: g.reg(), Rs2: g.reg()})
	case r < 81: // load
		g.memAtom(true)
	case r < 89: // store
		g.memAtom(false)
	case r < 94: // forward conditional branch
		op := branchOps[g.rng.Intn(len(branchOps))]
		g.prog.Atoms = append(g.prog.Atoms, Atom{
			Kind:   KindBranch,
			Insns:  []isa.Inst{{Op: op, Rs1: g.reg(), Rs2: g.reg()}},
			Target: len(g.prog.Atoms) + 2 + g.rng.Intn(5),
		})
	case r < 96: // forward jal
		g.prog.Atoms = append(g.prog.Atoms, Atom{
			Kind:   KindJump,
			Insns:  []isa.Inst{{Op: isa.OpJAL, Rd: g.reg()}},
			Target: len(g.prog.Atoms) + 2 + g.rng.Intn(4),
		})
	default: // loop structure
		switch {
		case len(g.loops) > 0 && (remaining < 4 || g.rng.Intn(2) == 0):
			g.closeLoop()
		case len(g.loops) < 2 && remaining >= 4:
			g.openLoop()
		default:
			// No loop move available: fall back to a cheap ALU atom so
			// the rng consumption stays in lockstep with the draw.
			g.plain(isa.Inst{Op: isa.OpADD, Rd: g.reg(), Rs1: g.reg(), Rs2: g.reg()})
		}
	}
}

// memAtom emits the 3-instruction confined memory access:
//
//	andi xAddr, src, offsetMask   ; window offset, 8-byte aligned
//	add  xAddr, xAddr, xBase      ; into the scratch window
//	<op> reg, disp(xAddr)         ; disp < 8, alignment-safe
func (g *gen) memAtom(load bool) {
	var op isa.Op
	if load {
		op = loadOps[g.rng.Intn(len(loadOps))]
	} else {
		op = storeOps[g.rng.Intn(len(storeOps))]
	}
	var disp int32
	switch op {
	case isa.OpLW, isa.OpSW:
		disp = int32(g.rng.Intn(2)) * 4
	case isa.OpLH, isa.OpLHU, isa.OpSH:
		disp = int32(g.rng.Intn(4)) * 2
	default:
		disp = int32(g.rng.Intn(8))
	}
	a := Atom{Kind: KindMem, Target: -1, Insns: []isa.Inst{
		{Op: isa.OpANDI, Rd: xAddr, Rs1: g.reg(), Imm: offsetMask},
		{Op: isa.OpADD, Rd: xAddr, Rs1: xAddr, Rs2: xBase},
	}}
	if load {
		a.Insns = append(a.Insns, isa.Inst{Op: op, Rd: g.reg(), Rs1: xAddr, Imm: disp})
	} else {
		a.Insns = append(a.Insns, isa.Inst{Op: op, Rs1: xAddr, Rs2: g.reg(), Imm: disp})
	}
	g.prog.Atoms = append(g.prog.Atoms, a)
}

// openLoop emits the loop-init atom (bound := 1..6, ctr := 0) and
// records where the body starts.
func (g *gen) openLoop() {
	depth := len(g.loops)
	ctr, bound := ctrReg0, boundReg0
	if depth == 1 {
		ctr, bound = ctrReg1, boundReg1
	}
	g.prog.Atoms = append(g.prog.Atoms, Atom{Kind: KindLoopInit, Target: -1,
		Insns: []isa.Inst{
			{Op: isa.OpADDI, Rd: bound, Rs1: isa.Zero, Imm: int32(1 + g.rng.Intn(6))},
			{Op: isa.OpADDI, Rd: ctr, Rs1: isa.Zero, Imm: 0},
		}})
	g.loops = append(g.loops, len(g.prog.Atoms)) // first body atom
}

// closeLoop emits the bounded back-branch (ctr++; blt ctr, bound, top).
func (g *gen) closeLoop() {
	depth := len(g.loops) - 1
	top := g.loops[depth]
	g.loops = g.loops[:depth]
	ctr, bound := ctrReg0, boundReg0
	if depth == 1 {
		ctr, bound = ctrReg1, boundReg1
	}
	g.prog.Atoms = append(g.prog.Atoms, Atom{Kind: KindLoopBack, Target: top,
		Insns: []isa.Inst{
			{Op: isa.OpADDI, Rd: ctr, Rs1: ctr, Imm: 1},
			{Op: isa.OpBLT, Rs1: ctr, Rs2: bound},
		}})
}

// Scratch returns the deterministic initial contents of the scratch
// window for a given rng (drawn after program generation, in one fixed
// order).
func Scratch(rng *rand.Rand) []byte {
	b := make([]byte, ScratchSize)
	for i := range b {
		b[i] = byte(rng.Intn(256))
	}
	return b
}

// GenerateImage returns the loadable image of the program a campaign
// trial with this seed runs: Generate's program plus its scratch
// window, drawn from one rng in the trial's order.
func GenerateImage(seed int64, opt GenOptions) (*mem.Image, error) {
	rng := rand.New(rand.NewSource(seed))
	p := Generate(rng, opt)
	return p.Image(ScratchFromSeed(rng.Int63()))
}

// ScratchFromSeed regenerates a scratch window from a stored seed —
// how corpus entries carry their initial memory in two machine words
// instead of 2 KiB of literals.
func ScratchFromSeed(seed int64) []byte {
	return Scratch(rand.New(rand.NewSource(seed)))
}
