package diag

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"diag/internal/asm"
	"diag/internal/isa"
	"diag/internal/iss"
	"diag/internal/mem"
)

// build assembles src or fails the test.
func build(t testing.TB, src string) *mem.Image {
	t.Helper()
	img, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return img
}

// runOn executes img on cfg and returns the stats and memory.
func runOn(t testing.TB, cfg Config, img *mem.Image) (Stats, *mem.Memory) {
	t.Helper()
	st, m, err := RunImage(cfg, img)
	if err != nil {
		t.Fatalf("RunImage(%s): %v", cfg.Name, err)
	}
	return st, m
}

// issRun executes img on the golden ISS.
func issRun(t testing.TB, img *mem.Image) *iss.CPU {
	t.Helper()
	m := mem.New()
	entry, err := img.Load(m)
	if err != nil {
		t.Fatal(err)
	}
	c := iss.New(m, entry)
	c.Run(50_000_000)
	if !c.Halted || c.Err != nil {
		t.Fatalf("iss: halted=%v err=%v", c.Halted, c.Err)
	}
	return c
}

const sumLoop = `
	li   t0, 0      # sum
	li   t1, 0      # i
	li   t2, 100    # n
loop:
	add  t0, t0, t1
	addi t1, t1, 1
	blt  t1, t2, loop
	li   t6, 0x800
	sw   t0, 0(t6)
	ebreak
`

func TestSerialLoopMatchesISS(t *testing.T) {
	img := build(t, sumLoop)
	ref := issRun(t, img)
	for _, cfg := range []Config{F4C2(), F4C16(), F4C32()} {
		st, m := runOn(t, cfg, img)
		if got := m.LoadWord(0x800); got != ref.Mem.LoadWord(0x800) {
			t.Errorf("%s: result %d, want %d", cfg.Name, got, ref.Mem.LoadWord(0x800))
		}
		if st.Retired != ref.Instret {
			t.Errorf("%s: retired %d, want %d", cfg.Name, st.Retired, ref.Instret)
		}
		if st.Cycles <= 0 {
			t.Errorf("%s: no cycles recorded", cfg.Name)
		}
	}
}

func TestLoopReusesDatapath(t *testing.T) {
	img := build(t, sumLoop)
	st, _ := runOn(t, F4C2(), img)
	if st.ReuseHits < 90 {
		t.Errorf("backward branches should reuse the datapath: hits=%d misses=%d",
			st.ReuseHits, st.ReuseMisses)
	}
	// The whole loop fits one line: only a couple of fetches ever needed.
	if st.LinesFetched > 6 {
		t.Errorf("loop should not refetch lines: %d fetched", st.LinesFetched)
	}
}

func TestReuseBeatsRefetch(t *testing.T) {
	// A loop body bigger than the 2-cluster window (>32 instructions)
	// cannot be fully reused on F4C2 but fits easily on F4C16.
	var b strings.Builder
	b.WriteString("\tli t0, 0\n\tli t1, 0\n\tli t2, 50\nloop:\n")
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&b, "\taddi t0, t0, %d\n", i%7)
	}
	b.WriteString("\taddi t1, t1, 1\n\tblt t1, t2, loop\n\tebreak\n")
	img := build(t, b.String())

	small, _ := runOn(t, F4C2(), img)
	large, _ := runOn(t, F4C16(), img)
	if small.ReuseHits > 0 {
		t.Errorf("F4C2 window too small for this loop, reuse hits = %d", small.ReuseHits)
	}
	if large.ReuseHits == 0 {
		t.Error("F4C16 should reuse the loop datapath")
	}
	if large.Cycles >= small.Cycles {
		t.Errorf("reuse should be faster: F4C16 %d cycles vs F4C2 %d", large.Cycles, small.Cycles)
	}
	if large.LinesFetched >= small.LinesFetched {
		t.Errorf("reuse should fetch fewer lines: %d vs %d", large.LinesFetched, small.LinesFetched)
	}
}

func TestILPExtraction(t *testing.T) {
	// Eight independent chains inside a reused loop: DiAG should overlap
	// them (IPC well above the serial bound) once the datapath is warm.
	var b strings.Builder
	for c := 0; c < 8; c++ {
		fmt.Fprintf(&b, "\tli s%d, %d\n", c, c+1)
	}
	b.WriteString("\tli t5, 0\n\tli t6, 200\nloop:\n")
	for i := 0; i < 6; i++ {
		for c := 0; c < 8; c++ {
			fmt.Fprintf(&b, "\tadd s%d, s%d, s%d\n", c, c, c)
		}
	}
	b.WriteString("\taddi t5, t5, 1\n\tblt t5, t6, loop\n\tebreak\n")
	img := build(t, b.String())
	st, _ := runOn(t, F4C16(), img)
	if st.IPC() < 2.0 {
		t.Errorf("independent chains should give IPC > 2, got %.2f", st.IPC())
	}
}

func TestDependentChainIsSerial(t *testing.T) {
	var b strings.Builder
	b.WriteString("\tli t0, 1\n")
	for i := 0; i < 64; i++ {
		b.WriteString("\tadd t0, t0, t0\n")
	}
	b.WriteString("\tebreak\n")
	img := build(t, b.String())
	st, _ := runOn(t, F4C16(), img)
	// 65+ retired over a serial chain: IPC must be ~<= 1.
	if st.IPC() > 1.1 {
		t.Errorf("dependent chain cannot exceed IPC 1, got %.2f", st.IPC())
	}
}

func TestMemoryStallsAttributed(t *testing.T) {
	// Pointer-chase across >L1-sized footprint: memory stalls dominate.
	src := `
	li   t0, 0x100000    # base
	li   t1, 0           # idx value
	li   t2, 2000        # iterations
	li   t3, 0
chase:
	slli t4, t1, 2
	add  t4, t4, t0
	lw   t1, 0(t4)       # next = a[cur]
	addi t3, t3, 1
	blt  t3, t2, chase
	ebreak
	`
	img := build(t, src)
	// Build a random permutation cycle so loads miss constantly.
	r := rand.New(rand.NewSource(42))
	n := 1 << 16
	perm := r.Perm(n)
	data := make([]byte, 4*n)
	for i, p := range perm {
		w := uint32(p)
		data[4*i] = byte(w)
		data[4*i+1] = byte(w >> 8)
		data[4*i+2] = byte(w >> 16)
		data[4*i+3] = byte(w >> 24)
	}
	img.Segments = append(img.Segments, mem.Segment{Addr: 0x100000, Data: data})
	st, _ := runOn(t, F4C2(), img)
	if st.StallShare(StallMemory) < 0.5 {
		t.Errorf("pointer chase should be memory-stall dominated: %.2f (mem=%d ctrl=%d other=%d)",
			st.StallShare(StallMemory), st.StallCycles[StallMemory],
			st.StallCycles[StallControl], st.StallCycles[StallOther])
	}
}

const simtVecAdd = `
	# c[i] = a[i] + b[i] for i in [0,256), via a SIMT-pipelined loop.
	li   t0, 0          # rc: byte offset
	li   t1, 4          # step
	li   t2, 1024       # end (256 words * 4)
	li   s0, 0x100000   # a
	li   s1, 0x101000   # b
	li   s2, 0x102000   # c
ls:	simt.s t0, t1, t2, 1
	add  a0, s0, t0
	lw   a1, 0(a0)
	add  a2, s1, t0
	lw   a3, 0(a2)
	add  a4, a1, a3
	add  a5, s2, t0
	sw   a4, 0(a5)
	simt.e t0, t2, ls
	ebreak
`

func simtImage(t testing.TB) *mem.Image {
	img := build(t, simtVecAdd)
	a := make([]byte, 1024)
	b := make([]byte, 1024)
	for i := 0; i < 256; i++ {
		putWord(a, i, uint32(i))
		putWord(b, i, uint32(1000+i))
	}
	img.Segments = append(img.Segments,
		mem.Segment{Addr: 0x100000, Data: a},
		mem.Segment{Addr: 0x101000, Data: b})
	return img
}

func putWord(b []byte, i int, w uint32) {
	b[4*i] = byte(w)
	b[4*i+1] = byte(w >> 8)
	b[4*i+2] = byte(w >> 16)
	b[4*i+3] = byte(w >> 24)
}

func TestSIMTPipelineCorrectAndCounted(t *testing.T) {
	img := simtImage(t)
	ref := issRun(t, img)
	st, m := runOn(t, F4C16(), img)
	for i := 0; i < 256; i++ {
		addr := uint32(0x102000 + 4*i)
		if got, want := m.LoadWord(addr), ref.Mem.LoadWord(addr); got != want {
			t.Fatalf("c[%d] = %d, want %d", i, got, want)
		}
	}
	if st.SIMTRegions != 1 {
		t.Errorf("SIMT regions = %d", st.SIMTRegions)
	}
	if st.SIMTThreads != 256 {
		t.Errorf("SIMT threads = %d, want 256", st.SIMTThreads)
	}
	if st.SIMTRejects != 0 {
		t.Errorf("unexpected rejects: %d", st.SIMTRejects)
	}
}

func TestSIMTPipelineBeatsSequential(t *testing.T) {
	img := simtImage(t)
	pip, _ := runOn(t, F4C16(), img)

	// The same loop expressed with an ordinary backward branch executes
	// sequentially (iterations serialized through the same PEs).
	seq := strings.Replace(simtVecAdd, "simt.s t0, t1, t2, 1", "nop", 1)
	seq = strings.Replace(seq,
		"simt.e t0, t2, ls",
		"addi t0, t0, 4\n\tblt t0, t2, ls", 1)
	img2 := build(t, seq)
	img2.Segments = img.Segments
	ser, _ := runOn(t, F4C16(), img2)

	if pip.Cycles >= ser.Cycles {
		t.Errorf("SIMT pipelining should beat sequential loop: %d vs %d cycles",
			pip.Cycles, ser.Cycles)
	}
	t.Logf("SIMT %d cycles vs sequential %d (%.2fx)", pip.Cycles, ser.Cycles,
		float64(ser.Cycles)/float64(pip.Cycles))
}

func TestSIMTRejectsBackwardBranchInside(t *testing.T) {
	src := `
	li   t0, 0
	li   t1, 1
	li   t2, 4
	li   t3, 0
ls:	simt.s t0, t1, t2, 1
	li   t4, 0
inner:
	addi t4, t4, 1
	blt  t4, t1, inner     # backward branch inside region
	add  t3, t3, t0
	simt.e t0, t2, ls
	ebreak
	`
	img := build(t, src)
	mach, err := NewMachine(F4C16(), img)
	if err != nil {
		t.Fatal(err)
	}
	if err := mach.Run(); err != nil {
		t.Fatal(err)
	}
	if st := mach.Stats(); st.SIMTRejects != 1 {
		t.Errorf("region with inner loop should be rejected, rejects=%d", st.SIMTRejects)
	}
	// Sequential fallback must still be architecturally correct: the
	// same registers (t3 holds the sum 0+1+2+3) and memory as the ISS
	// booted like ring 0 (tp = 0, gp = 1 hart).
	refMem := mem.New()
	entry, err := img.Load(refMem)
	if err != nil {
		t.Fatal(err)
	}
	ref := iss.New(refMem, entry)
	ref.Boot(0, 1)
	ref.Run(1_000_000)
	if !ref.Halted || ref.Err != nil {
		t.Fatalf("iss: halted=%v err=%v", ref.Halted, ref.Err)
	}
	got := mach.Ring(0).CPU()
	if got.X[isa.T3] != 6 || got.X != ref.X {
		t.Errorf("registers after fallback: t3 = %d, x = %v; ISS t3 = %d, x = %v",
			got.X[isa.T3], got.X, ref.X[isa.T3], ref.X)
	}
	if d, want := mach.Mem().Digest(), ref.Mem.Digest(); d != want {
		t.Errorf("memory digest %#x after fallback, ISS %#x", d, want)
	}
}

func TestSIMTThroughputScalesWithClusters(t *testing.T) {
	img := simtImage(t)
	c2, _ := runOn(t, F4C2(), img)
	c16, _ := runOn(t, F4C16(), img)
	if c16.Cycles >= c2.Cycles {
		t.Errorf("more clusters should not be slower under SIMT: %d vs %d",
			c16.Cycles, c2.Cycles)
	}
}

func TestMultiRingPartitionsWork(t *testing.T) {
	// Each ring sums its own slice; ring i writes result to 0x900+4*tid.
	src := `
	# tp = tid, gp = nthreads (machine convention)
	li   t0, 256        # total elements
	divu t1, t0, gp     # chunk
	mul  t2, t1, tp     # start
	add  t3, t2, t1     # end
	li   s0, 0x100000
	li   s1, 0          # sum
loop:
	slli t4, t2, 2
	add  t4, t4, s0
	lw   t5, 0(t4)
	add  s1, s1, t5
	addi t2, t2, 1
	blt  t2, t3, loop
	slli t6, tp, 2
	li   s2, 0x900
	add  s2, s2, t6
	sw   s1, 0(s2)
	ebreak
	`
	img := build(t, src)
	data := make([]byte, 1024)
	for i := 0; i < 256; i++ {
		putWord(data, i, uint32(i))
	}
	img.Segments = append(img.Segments, mem.Segment{Addr: 0x100000, Data: data})

	cfg := MultiRing(F4C32(), 4, 2)
	st, m := runOn(t, cfg, img)
	total := uint32(0)
	for tid := 0; tid < 4; tid++ {
		total += m.LoadWord(uint32(0x900 + 4*tid))
	}
	if total != 255*256/2 {
		t.Errorf("partitioned sum = %d, want %d", total, 255*256/2)
	}
	if st.Retired == 0 || st.Cycles == 0 {
		t.Error("stats empty")
	}
}

func TestMultiRingFasterThanSingle(t *testing.T) {
	src := `
	li   t0, 4096
	divu t1, t0, gp
	mul  t2, t1, tp
	add  t3, t2, t1
	li   s0, 0x100000
	li   s1, 0
loop:
	slli t4, t2, 2
	add  t4, t4, s0
	lw   t5, 0(t4)
	mul  t5, t5, t5
	add  s1, s1, t5
	addi t2, t2, 1
	blt  t2, t3, loop
	slli t6, tp, 2
	li   s2, 0x900
	add  s2, s2, t6
	sw   s1, 0(s2)
	ebreak
	`
	img := build(t, src)
	data := make([]byte, 4*4096)
	for i := 0; i < 4096; i++ {
		putWord(data, i, uint32(i%97))
	}
	img.Segments = append(img.Segments, mem.Segment{Addr: 0x100000, Data: data})

	one, _ := runOn(t, MultiRing(F4C32(), 1, 2), img)
	eight, _ := runOn(t, MultiRing(F4C32(), 8, 2), img)
	if eight.Cycles >= one.Cycles {
		t.Errorf("8 rings should beat 1 ring: %d vs %d cycles", eight.Cycles, one.Cycles)
	}
	t.Logf("1 ring %d cycles, 8 rings %d cycles (%.2fx)", one.Cycles, eight.Cycles,
		float64(one.Cycles)/float64(eight.Cycles))
}

func TestConfigValidation(t *testing.T) {
	bad := Config{PEsPerCluster: 16, Clusters: 1, Rings: 1}
	if err := bad.Validate(); err == nil {
		t.Error("1 cluster should be rejected (need two to alternate)")
	}
	bad = Config{PEsPerCluster: 15, Clusters: 2, Rings: 1}
	if err := bad.Validate(); err == nil {
		t.Error("odd PE count should be rejected")
	}
}

func TestPresets(t *testing.T) {
	cases := []struct {
		cfg  Config
		pes  int
		name string
	}{
		{I4C2(), 32, "I4C2"},
		{F4C2(), 32, "F4C2"},
		{F4C16(), 256, "F4C16"},
		{F4C32(), 512, "F4C32"},
	}
	for _, c := range cases {
		if c.cfg.TotalPEs() != c.pes {
			t.Errorf("%s: PEs = %d, want %d", c.name, c.cfg.TotalPEs(), c.pes)
		}
		if c.cfg.Name != c.name {
			t.Errorf("name %q", c.cfg.Name)
		}
		if err := c.cfg.Validate(); err != nil {
			t.Errorf("%s invalid: %v", c.name, err)
		}
	}
	mr := MultiRing(F4C32(), 16, 2)
	if mr.TotalPEs() != 512 {
		t.Errorf("16x2 rings PEs = %d", mr.TotalPEs())
	}
}

func TestAbnormalHaltPropagates(t *testing.T) {
	img := build(t, "ecall\n")
	_, _, err := RunImage(F4C2(), img)
	if err == nil {
		t.Error("ecall should produce an error")
	}
}

func TestInstructionCap(t *testing.T) {
	cfg := F4C2()
	cfg.MaxInstructions = 100
	img := build(t, "spin: j spin\n")
	_, _, err := RunImage(cfg, img)
	if err == nil || !strings.Contains(err.Error(), "cap") {
		t.Errorf("infinite loop should hit the cap: %v", err)
	}
}

// Differential property: random straight-line integer programs produce
// identical architectural state on DiAG and the ISS.
func TestRandomProgramsMatchISS(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	ops := []string{"add", "sub", "and", "or", "xor", "sll", "srl", "mul"}
	for trial := 0; trial < 25; trial++ {
		var b strings.Builder
		for i := 1; i < 16; i++ {
			fmt.Fprintf(&b, "\tli x%d, %d\n", i, r.Intn(10000)-5000)
		}
		for i := 0; i < 60; i++ {
			op := ops[r.Intn(len(ops))]
			fmt.Fprintf(&b, "\t%s x%d, x%d, x%d\n",
				op, 1+r.Intn(15), 1+r.Intn(15), 1+r.Intn(15))
		}
		// Spill the register file for comparison.
		for i := 1; i < 16; i++ {
			fmt.Fprintf(&b, "\tsw x%d, %d(zero)\n", i, 0x400+4*i)
		}
		b.WriteString("\tebreak\n")
		img := build(t, b.String())
		ref := issRun(t, img)
		_, m := runOn(t, F4C16(), img)
		for i := 1; i < 16; i++ {
			addr := uint32(0x400 + 4*i)
			if m.LoadWord(addr) != ref.Mem.LoadWord(addr) {
				t.Fatalf("trial %d: x%d differs: diag=%d iss=%d",
					trial, i, m.LoadWord(addr), ref.Mem.LoadWord(addr))
			}
		}
	}
}

func TestStatsMergeAndIPC(t *testing.T) {
	a := Stats{Cycles: 100, Retired: 50}
	b := Stats{Cycles: 200, Retired: 70}
	a.Merge(b)
	if a.Cycles != 200 {
		t.Error("merge should take max cycles")
	}
	if a.Retired != 120 {
		t.Error("merge should sum retired")
	}
	if ipc := a.IPC(); ipc != 0.6 {
		t.Errorf("IPC = %v", ipc)
	}
	var empty Stats
	if empty.IPC() != 0 || empty.StallShare(StallMemory) != 0 {
		t.Error("empty stats should report zeros")
	}
}

func TestStallKindString(t *testing.T) {
	if StallMemory.String() != "memory" || StallControl.String() != "control" ||
		StallOther.String() != "other" || StallNone.String() != "none" {
		t.Error("stall kind names wrong")
	}
}
