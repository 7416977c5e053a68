// Package iss implements the golden functional instruction-set simulator
// for RV32IMF plus the DiAG extensions. It executes one instruction at a
// time with no timing model and serves three roles:
//
//   - semantic reference: both timing simulators (internal/diag,
//     internal/ooo) are differentially tested against it;
//   - trace generator: the out-of-order baseline is execution-driven off
//     the dynamic instruction stream the ISS produces;
//   - workload validation: every benchmark kernel is first run here and
//     its final memory checksum recorded as the expected result.
//
// Bare-metal conventions: EBREAK halts the machine cleanly; ECALL is not
// supported by the modeled hardware (the paper's prototype lacks system
// instructions, §6) and halts with an error.
package iss

import (
	"math"

	"diag/internal/diagerr"
	"diag/internal/isa"
	"diag/internal/mem"
)

// Exec describes one retired instruction; timing simulators and tracers
// consume this record.
type Exec struct {
	PC      uint32
	Inst    isa.Inst
	NextPC  uint32
	Taken   bool   // conditional branch outcome (also true for jumps)
	MemAddr uint32 // effective address for loads/stores
}

// Predecode-cache geometry: a direct-mapped image of decoded
// instructions indexed by word address. 4096 entries cover 16 KiB of
// text with no conflicts — larger than every kernel in
// internal/workloads — and conflicts only cost a re-decode, never
// correctness. The entries live in 16 pages of 256 (1 KiB of text
// each), allocated on the first fill into them, so a CPU costs the
// text it runs, not the whole table.
const (
	predecodeBits = 12
	predecodeMask = 1<<predecodeBits - 1
	predPageBits  = 8
	predPageMask  = 1<<predPageBits - 1
	predPages     = 1 << (predecodeBits - predPageBits)
)

// predPage is one page of the predecode cache.
type predPage [1 << predPageBits]predecoded

// emptyPredPage is the shared, read-only page every predecode slot
// starts at: its zero tags never match (a tag always has bit 0 set), so
// the hit path needs no check for an unallocated page. fetch replaces
// it with a private page before the first fill.
var emptyPredPage predPage

// predecoded is one predecode-cache entry. tag is the instruction's
// word address with bit 0 set (so address 0 is representable and the
// zero value never matches); gen is the memory's code-write generation
// at fill time, which precisely invalidates the entry on any store
// that may have modified instruction words — self-modifying code and
// fault-injected text flips re-decode, everything else skips decode.
type predecoded struct {
	tag  uint32
	gen  uint64
	inst isa.Inst
}

// Superblock-cache geometry: a direct-mapped cache of traced
// straight-line decoded runs, indexed by the word address of the run's
// first instruction. 1024 entries of up to 32 instructions each cover
// every kernel in internal/workloads; conflicts only cost a re-trace,
// never correctness.
const (
	sbBits   = 10
	sbSize   = 1 << sbBits
	sbMask   = sbSize - 1
	sbMaxLen = 32
)

// superblock is one block-cache entry: a decoded straight-line run
// starting at the tagged PC and ending at the first control-flow or
// system instruction (which is included, so every block exit is either
// the terminator's redirect or a fall-through past sbMaxLen). The tag
// and gen fields invalidate exactly like predecoded entries; stores is
// a bitmask of which instructions in the run are stores, so block
// execution re-checks the code generation only after instructions that
// can actually modify text (self-modifying code).
type superblock struct {
	tag    uint32
	gen    uint64
	n      int32
	stores uint64
	insts  [sbMaxLen]isa.Inst
}

// CPU is the architectural state of one RV32IMF hart.
type CPU struct {
	Mem *mem.Memory
	PC  uint32
	X   [isa.NumRegs]uint32 // integer registers; X[0] is forced to zero
	F   [isa.NumRegs]uint32 // FP registers stored as raw IEEE 754 bits

	Halted  bool
	Err     error  // non-nil if halted abnormally
	Instret uint64 // retired instruction count

	// NoPredecode disables the predecode cache, forcing a full fetch +
	// decode on every step. It exists for differential testing (the
	// cached and uncached machines must agree on everything) and must
	// be set before the first Step. It implies NoSuperblock: the raw
	// differential column stays fully raw.
	NoPredecode bool

	// NoSuperblock disables superblock execution in Run, forcing the
	// per-instruction step loop. Like NoPredecode it exists for
	// differential testing and must be set before the first Run.
	NoSuperblock bool

	pred    [predPages]*predPage // direct-mapped predecode cache
	rawInst isa.Inst             // scratch decode slot for the NoPredecode path

	// blocks is the direct-mapped superblock cache. It is allocated
	// lazily on the first block dispatch: only Run uses it, so the
	// timing simulators (which drive the CPU through StepInto) never
	// pay its footprint.
	blocks []superblock

	// Superblock effectiveness counters (host-side observability, not
	// architectural state): block dispatches that hit/missed the cache
	// and instructions retired through block execution.
	sbHits, sbMisses, sbInsts uint64

	// Hook, when non-nil, observes every retired instruction. Timing
	// simulators embed a CPU, so setting Hook traces machine runs too.
	Hook func(Exec)

	// Precise-interrupt injection (paper §5.1.4). When InterruptAt is
	// non-zero, the first instruction boundary at which Instret >=
	// InterruptAt redirects control to InterruptVector: every earlier
	// instruction has fully retired, no later one has any effect. EPC
	// records the interrupted PC; Trapped is set so the interrupt fires
	// once.
	InterruptAt     uint64
	InterruptVector uint32
	EPC             uint32
	Trapped         bool

	// simtStep caches, per simt.s PC, the step register number so simt.e
	// can advance the control register without re-fetching the opener.
	simtStep map[uint32]isa.Reg
}

// New returns a CPU with the given memory and entry point.
func New(m *mem.Memory, entry uint32) *CPU {
	c := &CPU{
		Mem:      m,
		PC:       entry,
		simtStep: make(map[uint32]isa.Reg),
	}
	for i := range c.pred {
		c.pred[i] = &emptyPredPage
	}
	return c
}

// Boot applies the hart boot convention every machine model shares:
// tp holds this hart's id and gp the machine's hart count. Multi-thread
// workloads read the two registers to partition their work, so a CPU
// that skips Boot runs as hart 0 of zero harts and computes the wrong
// answer. Call it after New (or Reset) and before the first Step.
func (c *CPU) Boot(hart, harts int) {
	c.X[isa.TP] = uint32(hart)
	c.X[isa.GP] = uint32(harts)
}

// Reset rewinds architectural state to the entry point, keeping memory.
func (c *CPU) Reset(entry uint32) {
	c.PC = entry
	c.X = [isa.NumRegs]uint32{}
	c.F = [isa.NumRegs]uint32{}
	c.Halted = false
	c.Err = nil
	c.Instret = 0
}

// FReg returns FP register f as a float32.
func (c *CPU) FReg(f isa.Reg) float32 { return math.Float32frombits(c.F[f]) }

// SetFReg sets FP register f from a float32.
func (c *CPU) SetFReg(f isa.Reg, v float32) { c.F[f] = math.Float32bits(v) }

// fail halts the CPU abnormally. Every abnormal halt is a defect of the
// program itself (undecodable word, misaligned access, unsupported
// system call, malformed SIMT region), so the error carries the
// diagerr.ErrBadProgram taxonomy tag for errors.Is.
func (c *CPU) fail(format string, args ...any) Exec {
	c.Halted = true
	c.Err = diagerr.Wrap(diagerr.ErrBadProgram, format, args...)
	return Exec{PC: c.PC, NextPC: c.PC}
}

// failInto is fail for the out-parameter exec path: it halts the CPU
// and overwrites *ex with the abnormal-halt record.
func (c *CPU) failInto(ex *Exec, format string, args ...any) {
	*ex = c.fail(format, args...)
}

// Step executes one instruction and returns its Exec record. Calling Step
// on a halted CPU is a no-op.
func (c *CPU) Step() Exec {
	var ex Exec
	c.StepInto(&ex)
	return ex
}

// StepInto is Step writing the record into caller-owned scratch instead
// of returning it by value: the timing simulators call it millions of
// times per run, and the out-parameter form eliminates two 32-byte
// struct copies per retired instruction.
func (c *CPU) StepInto(ex *Exec) {
	if c.Halted {
		*ex = Exec{PC: c.PC, NextPC: c.PC}
		return
	}
	if c.InterruptAt != 0 && !c.Trapped && c.Instret >= c.InterruptAt {
		// Precise interrupt: taken at an instruction boundary (§5.1.4).
		c.EPC = c.PC
		c.PC = c.InterruptVector
		c.Trapped = true
	}
	c.step(ex)
}

// fetch returns the decoded instruction at PC, consulting the predecode
// cache first: a hit skips both the memory walk and the decoder, and
// the generation tag guarantees the cached decode still matches the
// word in memory. The returned pointer aliases the cache entry (or the
// uncached scratch slot) and is only valid until the next fetch; exec
// copies what it keeps.
func (c *CPU) fetch() (*isa.Inst, error) {
	i := (c.PC >> 2) & predecodeMask
	p := c.pred[i>>predPageBits]
	e := &p[i&predPageMask]
	gen := c.Mem.CodeGen()
	if !c.NoPredecode && e.tag == c.PC|1 && e.gen == gen {
		return &e.inst, nil
	}
	in, err := isa.Decode(c.Mem.LoadWord(c.PC))
	if err != nil {
		return nil, err
	}
	if c.NoPredecode {
		c.rawInst = in
		return &c.rawInst, nil
	}
	if p == &emptyPredPage {
		p = new(predPage)
		c.pred[i>>predPageBits] = p
		e = &p[i&predPageMask]
	}
	*e = predecoded{tag: c.PC | 1, gen: gen, inst: in}
	return &e.inst, nil
}

// step is the interrupt-free core of StepInto; callers guarantee the CPU
// is not halted and any pending interrupt has been considered.
func (c *CPU) step(ex *Exec) {
	if c.PC&3 != 0 {
		c.failInto(ex, "iss: misaligned PC 0x%x", c.PC)
		return
	}
	in, err := c.fetch()
	if err != nil {
		c.failInto(ex, "iss: at PC 0x%x: %v", c.PC, err)
		return
	}
	// Prime the record field by field: a composite literal would be
	// built in a temporary and then copied whole.
	ex.PC = c.PC
	ex.Inst = *in
	ex.NextPC = c.PC + 4
	ex.Taken = false
	ex.MemAddr = 0
	c.exec(in, ex)
	c.X[0] = 0
	if !c.Halted {
		c.Instret++
		c.PC = ex.NextPC
		if c.Hook != nil {
			c.Hook(*ex)
		}
	}
}

// Run executes until the CPU halts or maxInst instructions retire.
// It returns the number of instructions retired by this call.
//
// The interrupt guard is hoisted out of the common path: once no
// interrupt can fire any more (none configured, or the one-shot trap
// already delivered), the loop runs without consulting the interrupt
// state at all — through whole superblocks when possible, otherwise
// one step at a time.
func (c *CPU) Run(maxInst uint64) uint64 {
	start := c.Instret
	useBlocks := !c.NoSuperblock && !c.NoPredecode && c.Hook == nil
	var ex Exec
	for !c.Halted && c.Instret-start < maxInst {
		if c.InterruptAt != 0 && !c.Trapped {
			c.StepInto(&ex)
			continue
		}
		if useBlocks {
			c.runBlocks(start, maxInst)
			continue
		}
		for !c.Halted && c.Instret-start < maxInst {
			c.step(&ex)
		}
	}
	return c.Instret - start
}

// SuperblockStats reports block-cache effectiveness since construction:
// hits and misses count block dispatches against the cache, insts
// counts instructions retired through block execution. The counters are
// host-side observability, not architectural state — they are neither
// snapshotted nor compared by differential tests.
func (c *CPU) SuperblockStats() (hits, misses, insts uint64) {
	return c.sbHits, c.sbMisses, c.sbInsts
}

// runBlocks is the superblock fast path of Run: it dispatches whole
// decoded blocks — one cache probe, one budget check per block — until
// the CPU halts or the budget expires. Callers guarantee no pending
// interrupt, no Hook, and that the predecode/superblock knobs are on.
//
// Per-instruction semantics inside a block are exactly step's: exec,
// X[0] pin, halt check before retirement, Instret++, PC = NextPC. A
// block never contains interior control flow (only its final
// instruction can redirect), so straight-line PC advancement inside the
// block matches the stepped machine instruction for instruction.
func (c *CPU) runBlocks(start, maxInst uint64) {
	if c.blocks == nil {
		c.blocks = make([]superblock, sbSize)
	}
	var ex Exec
	for !c.Halted && c.Instret-start < maxInst {
		if c.PC&3 != 0 {
			c.step(&ex) // reproduce the exact misaligned-PC failure
			continue
		}
		e := &c.blocks[(c.PC>>2)&sbMask]
		gen := c.Mem.CodeGen()
		if e.tag != c.PC|1 || e.gen != gen {
			c.sbMisses++
			if !c.buildBlock(e, gen) {
				c.step(&ex) // reproduce the exact decode failure
				continue
			}
		} else {
			c.sbHits++
		}
		if uint64(e.n) > maxInst-(c.Instret-start) {
			// The budget would expire mid-block: retire the remainder
			// one instruction at a time so the pause point is exact.
			c.step(&ex)
			continue
		}
		for i := int32(0); i < e.n; i++ {
			ex.NextPC = c.PC + 4
			c.exec(&e.insts[i], &ex)
			c.X[0] = 0
			if c.Halted {
				return
			}
			c.Instret++
			c.PC = ex.NextPC
			c.sbInsts++
			if e.stores&(1<<uint(i)) != 0 && c.Mem.CodeGen() != gen {
				// The store modified (or may have modified) text: the
				// rest of this block is stale. Resume at the updated PC;
				// the next probe re-traces against the new generation.
				break
			}
		}
	}
}

// buildBlock traces and decodes a superblock starting at the current PC
// into e. The trace ends at the first control-flow or system
// instruction (included in the block: branches/jumps redirect, ecall/
// ebreak halt, simt.e loops back — none may have instructions executed
// after them from the same straight-line trace) or at sbMaxLen.
// simt.s does not terminate a block: it never redirects. A leading
// undecodable word invalidates the entry and returns false so the
// caller can reproduce the exact per-step decode failure; a later
// undecodable word just ends the block early (it may be data that is
// never reached, e.g. right after an unconditional jump).
func (c *CPU) buildBlock(e *superblock, gen uint64) bool {
	e.tag = c.PC | 1
	e.gen = gen
	e.stores = 0
	n := int32(0)
	for pc := c.PC; n < sbMaxLen; pc += 4 {
		in, err := isa.Decode(c.Mem.LoadWord(pc))
		if err != nil {
			break
		}
		e.insts[n] = in
		if in.Op.IsStore() {
			e.stores |= 1 << uint(n)
		}
		n++
		if in.Op.IsControl() || in.Op == isa.OpECALL || in.Op == isa.OpEBREAK || in.Op == isa.OpSIMTE {
			break
		}
	}
	e.n = n
	if n == 0 {
		e.tag = 0
		return false
	}
	return true
}

// exec executes in against a primed record: callers must have set
// ex.NextPC to PC+4 (the fall-through) before the call. step primes the
// whole record (PC, Inst, cleared Taken/MemAddr) because StepInto
// callers and Hook consume every field; runBlocks primes only NextPC —
// the record there is private scratch whose other fields are never
// read, and skipping the ~30-byte struct write per instruction is most
// of the superblock speedup.
func (c *CPU) exec(in *isa.Inst, ex *Exec) {
	rs1 := c.X[in.Rs1]
	rs2 := c.X[in.Rs2]

	switch in.Op {
	case isa.OpLUI:
		c.X[in.Rd] = uint32(in.Imm)
	case isa.OpAUIPC:
		c.X[in.Rd] = c.PC + uint32(in.Imm)
	case isa.OpJAL:
		c.X[in.Rd] = c.PC + 4
		ex.NextPC = c.PC + uint32(in.Imm)
		ex.Taken = true
	case isa.OpJALR:
		t := c.PC + 4
		ex.NextPC = (rs1 + uint32(in.Imm)) &^ 1
		c.X[in.Rd] = t
		ex.Taken = true

	case isa.OpBEQ, isa.OpBNE, isa.OpBLT, isa.OpBGE, isa.OpBLTU, isa.OpBGEU:
		ex.Taken = branchTaken(in.Op, rs1, rs2)
		if ex.Taken {
			ex.NextPC = c.PC + uint32(in.Imm)
		}

	case isa.OpLB:
		ex.MemAddr = rs1 + uint32(in.Imm)
		c.X[in.Rd] = uint32(int32(int8(c.Mem.LoadByte(ex.MemAddr))))
	case isa.OpLBU:
		ex.MemAddr = rs1 + uint32(in.Imm)
		c.X[in.Rd] = uint32(c.Mem.LoadByte(ex.MemAddr))
	case isa.OpLH:
		ex.MemAddr = rs1 + uint32(in.Imm)
		if ex.MemAddr&1 != 0 {
			c.failInto(ex, "iss: misaligned lh at 0x%x (PC 0x%x)", ex.MemAddr, c.PC)
			return
		}
		c.X[in.Rd] = uint32(int32(int16(c.Mem.LoadHalf(ex.MemAddr))))
	case isa.OpLHU:
		ex.MemAddr = rs1 + uint32(in.Imm)
		if ex.MemAddr&1 != 0 {
			c.failInto(ex, "iss: misaligned lhu at 0x%x (PC 0x%x)", ex.MemAddr, c.PC)
			return
		}
		c.X[in.Rd] = uint32(c.Mem.LoadHalf(ex.MemAddr))
	case isa.OpLW:
		ex.MemAddr = rs1 + uint32(in.Imm)
		if ex.MemAddr&3 != 0 {
			c.failInto(ex, "iss: misaligned lw at 0x%x (PC 0x%x)", ex.MemAddr, c.PC)
			return
		}
		c.X[in.Rd] = c.Mem.LoadWord(ex.MemAddr)
	case isa.OpFLW:
		ex.MemAddr = rs1 + uint32(in.Imm)
		if ex.MemAddr&3 != 0 {
			c.failInto(ex, "iss: misaligned flw at 0x%x (PC 0x%x)", ex.MemAddr, c.PC)
			return
		}
		c.F[in.Rd] = c.Mem.LoadWord(ex.MemAddr)

	case isa.OpSB:
		ex.MemAddr = rs1 + uint32(in.Imm)
		c.Mem.StoreByte(ex.MemAddr, byte(rs2))
	case isa.OpSH:
		ex.MemAddr = rs1 + uint32(in.Imm)
		if ex.MemAddr&1 != 0 {
			c.failInto(ex, "iss: misaligned sh at 0x%x (PC 0x%x)", ex.MemAddr, c.PC)
			return
		}
		c.Mem.StoreHalf(ex.MemAddr, uint16(rs2))
	case isa.OpSW:
		ex.MemAddr = rs1 + uint32(in.Imm)
		if ex.MemAddr&3 != 0 {
			c.failInto(ex, "iss: misaligned sw at 0x%x (PC 0x%x)", ex.MemAddr, c.PC)
			return
		}
		c.Mem.StoreWord(ex.MemAddr, rs2)
	case isa.OpFSW:
		ex.MemAddr = rs1 + uint32(in.Imm)
		if ex.MemAddr&3 != 0 {
			c.failInto(ex, "iss: misaligned fsw at 0x%x (PC 0x%x)", ex.MemAddr, c.PC)
			return
		}
		c.Mem.StoreWord(ex.MemAddr, c.F[in.Rs2])

	case isa.OpADDI:
		c.X[in.Rd] = rs1 + uint32(in.Imm)
	case isa.OpSLTI:
		c.X[in.Rd] = b2u(int32(rs1) < in.Imm)
	case isa.OpSLTIU:
		c.X[in.Rd] = b2u(rs1 < uint32(in.Imm))
	case isa.OpXORI:
		c.X[in.Rd] = rs1 ^ uint32(in.Imm)
	case isa.OpORI:
		c.X[in.Rd] = rs1 | uint32(in.Imm)
	case isa.OpANDI:
		c.X[in.Rd] = rs1 & uint32(in.Imm)
	case isa.OpSLLI:
		c.X[in.Rd] = rs1 << uint32(in.Imm&31)
	case isa.OpSRLI:
		c.X[in.Rd] = rs1 >> uint32(in.Imm&31)
	case isa.OpSRAI:
		c.X[in.Rd] = uint32(int32(rs1) >> uint32(in.Imm&31))

	case isa.OpADD:
		c.X[in.Rd] = rs1 + rs2
	case isa.OpSUB:
		c.X[in.Rd] = rs1 - rs2
	case isa.OpSLL:
		c.X[in.Rd] = rs1 << (rs2 & 31)
	case isa.OpSLT:
		c.X[in.Rd] = b2u(int32(rs1) < int32(rs2))
	case isa.OpSLTU:
		c.X[in.Rd] = b2u(rs1 < rs2)
	case isa.OpXOR:
		c.X[in.Rd] = rs1 ^ rs2
	case isa.OpSRL:
		c.X[in.Rd] = rs1 >> (rs2 & 31)
	case isa.OpSRA:
		c.X[in.Rd] = uint32(int32(rs1) >> (rs2 & 31))
	case isa.OpOR:
		c.X[in.Rd] = rs1 | rs2
	case isa.OpAND:
		c.X[in.Rd] = rs1 & rs2

	case isa.OpFENCE:
		// Single-hart memory model: fence is a no-op.
	case isa.OpECALL:
		c.failInto(ex, "iss: ecall at PC 0x%x: system calls unsupported (paper §6)", c.PC)
		return
	case isa.OpEBREAK:
		c.Halted = true
		ex.NextPC = c.PC

	case isa.OpMUL:
		c.X[in.Rd] = rs1 * rs2
	case isa.OpMULH:
		c.X[in.Rd] = uint32(uint64(int64(int32(rs1))*int64(int32(rs2))) >> 32)
	case isa.OpMULHSU:
		c.X[in.Rd] = uint32(uint64(int64(int32(rs1))*int64(uint64(rs2))) >> 32)
	case isa.OpMULHU:
		c.X[in.Rd] = uint32(uint64(rs1) * uint64(rs2) >> 32)
	case isa.OpDIV:
		c.X[in.Rd] = divS(rs1, rs2)
	case isa.OpDIVU:
		if rs2 == 0 {
			c.X[in.Rd] = ^uint32(0)
		} else {
			c.X[in.Rd] = rs1 / rs2
		}
	case isa.OpREM:
		c.X[in.Rd] = remS(rs1, rs2)
	case isa.OpREMU:
		if rs2 == 0 {
			c.X[in.Rd] = rs1
		} else {
			c.X[in.Rd] = rs1 % rs2
		}

	case isa.OpFADDS:
		c.SetFReg(in.Rd, c.FReg(in.Rs1)+c.FReg(in.Rs2))
	case isa.OpFSUBS:
		c.SetFReg(in.Rd, c.FReg(in.Rs1)-c.FReg(in.Rs2))
	case isa.OpFMULS:
		c.SetFReg(in.Rd, c.FReg(in.Rs1)*c.FReg(in.Rs2))
	case isa.OpFDIVS:
		c.SetFReg(in.Rd, c.FReg(in.Rs1)/c.FReg(in.Rs2))
	case isa.OpFSQRTS:
		c.SetFReg(in.Rd, float32(math.Sqrt(float64(c.FReg(in.Rs1)))))
	case isa.OpFMADDS:
		c.SetFReg(in.Rd, fma32(c.FReg(in.Rs1), c.FReg(in.Rs2), c.FReg(in.Rs3)))
	case isa.OpFMSUBS:
		c.SetFReg(in.Rd, fma32(c.FReg(in.Rs1), c.FReg(in.Rs2), -c.FReg(in.Rs3)))
	case isa.OpFNMSUBS:
		c.SetFReg(in.Rd, fma32(-c.FReg(in.Rs1), c.FReg(in.Rs2), c.FReg(in.Rs3)))
	case isa.OpFNMADDS:
		c.SetFReg(in.Rd, fma32(-c.FReg(in.Rs1), c.FReg(in.Rs2), -c.FReg(in.Rs3)))

	case isa.OpFSGNJS:
		c.F[in.Rd] = c.F[in.Rs1]&0x7FFFFFFF | c.F[in.Rs2]&0x80000000
	case isa.OpFSGNJNS:
		c.F[in.Rd] = c.F[in.Rs1]&0x7FFFFFFF | ^c.F[in.Rs2]&0x80000000
	case isa.OpFSGNJXS:
		c.F[in.Rd] = c.F[in.Rs1] ^ c.F[in.Rs2]&0x80000000
	case isa.OpFMINS:
		c.SetFReg(in.Rd, fminmax(c.FReg(in.Rs1), c.FReg(in.Rs2), true))
	case isa.OpFMAXS:
		c.SetFReg(in.Rd, fminmax(c.FReg(in.Rs1), c.FReg(in.Rs2), false))

	case isa.OpFCVTWS:
		c.X[in.Rd] = uint32(cvtWS(c.FReg(in.Rs1)))
	case isa.OpFCVTWUS:
		c.X[in.Rd] = cvtWUS(c.FReg(in.Rs1))
	case isa.OpFMVXW:
		c.X[in.Rd] = c.F[in.Rs1]
	case isa.OpFCLASSS:
		c.X[in.Rd] = fclass(c.F[in.Rs1])
	case isa.OpFEQS:
		c.X[in.Rd] = b2u(c.FReg(in.Rs1) == c.FReg(in.Rs2))
	case isa.OpFLTS:
		c.X[in.Rd] = b2u(c.FReg(in.Rs1) < c.FReg(in.Rs2))
	case isa.OpFLES:
		c.X[in.Rd] = b2u(c.FReg(in.Rs1) <= c.FReg(in.Rs2))
	case isa.OpFCVTSW:
		c.SetFReg(in.Rd, float32(int32(rs1)))
	case isa.OpFCVTSWU:
		c.SetFReg(in.Rd, float32(rs1))
	case isa.OpFMVWX:
		c.F[in.Rd] = rs1

	case isa.OpSIMTS:
		// Functionally, simt.s only records the step register for the
		// matching simt.e; the control register rc already holds its
		// initial value. Hardware uses the interval (Imm) for injection
		// pacing, which has no functional effect.
		c.simtStep[c.PC] = in.Rs1
	case isa.OpSIMTE:
		// Sequential (non-pipelined) semantics of the hardware loop:
		// rc += step; if rc < rend, repeat the body.
		sPC := c.PC + uint32(in.Imm)
		stepReg, ok := c.simtStep[sPC]
		if !ok {
			// First touch without going through simt.s (e.g. branched into
			// the region): decode the opener directly.
			op, err := isa.Decode(c.Mem.LoadWord(sPC))
			if err != nil || op.Op != isa.OpSIMTS {
				c.failInto(ex, "iss: simt.e at 0x%x: no matching simt.s at 0x%x", c.PC, sPC)
				return
			}
			stepReg = op.Rs1
			c.simtStep[sPC] = stepReg
		}
		rc := c.X[in.Rd] + c.X[stepReg]
		c.X[in.Rd] = rc
		if int32(rc) < int32(c.X[in.Rs1]) {
			ex.NextPC = sPC + 4
			ex.Taken = true
		}

	default:
		c.failInto(ex, "iss: unimplemented op %v at PC 0x%x", in.Op, c.PC)
		return
	}
}

// branchTaken evaluates a conditional branch; shared with the timing
// simulators so all machines agree on branch semantics.
func branchTaken(op isa.Op, rs1, rs2 uint32) bool {
	switch op {
	case isa.OpBEQ:
		return rs1 == rs2
	case isa.OpBNE:
		return rs1 != rs2
	case isa.OpBLT:
		return int32(rs1) < int32(rs2)
	case isa.OpBGE:
		return int32(rs1) >= int32(rs2)
	case isa.OpBLTU:
		return rs1 < rs2
	case isa.OpBGEU:
		return rs1 >= rs2
	}
	return false
}

// BranchTaken exposes branch evaluation for the timing simulators.
func BranchTaken(op isa.Op, rs1, rs2 uint32) bool { return branchTaken(op, rs1, rs2) }

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

func divS(a, b uint32) uint32 {
	sa, sb := int32(a), int32(b)
	switch {
	case sb == 0:
		return ^uint32(0)
	case sa == math.MinInt32 && sb == -1:
		return a // overflow: result is MinInt32
	default:
		return uint32(sa / sb)
	}
}

func remS(a, b uint32) uint32 {
	sa, sb := int32(a), int32(b)
	switch {
	case sb == 0:
		return a
	case sa == math.MinInt32 && sb == -1:
		return 0
	default:
		return uint32(sa % sb)
	}
}

// fma32 computes a*b+c with a single rounding, as the hardware FMA does.
func fma32(a, b, c float32) float32 {
	return float32(math.FMA(float64(a), float64(b), float64(c)))
}

// fminmax implements RISC-V fmin.s/fmax.s NaN semantics: if one operand is
// NaN the other is returned; if both are NaN the canonical NaN is returned.
func fminmax(a, b float32, min bool) float32 {
	an, bn := a != a, b != b
	switch {
	case an && bn:
		return math.Float32frombits(0x7FC00000)
	case an:
		return b
	case bn:
		return a
	}
	// ±0 ordering: fmin(-0,+0) = -0, fmax(-0,+0) = +0.
	if a == 0 && b == 0 {
		aneg := math.Float32bits(a)&0x80000000 != 0
		if min == aneg {
			return a
		}
		return b
	}
	if (a < b) == min {
		return a
	}
	return b
}

// cvtWS converts float32 to int32 with round-toward-zero and RISC-V
// saturation semantics (NaN converts to the maximum positive value).
func cvtWS(f float32) int32 {
	switch {
	case f != f:
		return math.MaxInt32
	case f >= math.MaxInt32:
		return math.MaxInt32
	case f <= math.MinInt32:
		return math.MinInt32
	}
	return int32(f)
}

// cvtWUS converts float32 to uint32 with round-toward-zero and saturation.
func cvtWUS(f float32) uint32 {
	switch {
	case f != f:
		return math.MaxUint32
	case f >= math.MaxUint32:
		return math.MaxUint32
	case f <= 0:
		return 0
	}
	return uint32(f)
}

// fclass returns the RISC-V FCLASS.S result mask for raw float bits.
func fclass(bits uint32) uint32 {
	sign := bits&0x80000000 != 0
	exp := bits >> 23 & 0xFF
	frac := bits & 0x7FFFFF
	switch {
	case exp == 0xFF && frac == 0:
		if sign {
			return 1 << 0 // -inf
		}
		return 1 << 7 // +inf
	case exp == 0xFF:
		if frac&0x400000 != 0 {
			return 1 << 9 // quiet NaN
		}
		return 1 << 8 // signaling NaN
	case exp == 0 && frac == 0:
		if sign {
			return 1 << 3 // -0
		}
		return 1 << 4 // +0
	case exp == 0:
		if sign {
			return 1 << 2 // negative subnormal
		}
		return 1 << 5 // positive subnormal
	default:
		if sign {
			return 1 << 1 // negative normal
		}
		return 1 << 6 // positive normal
	}
}
