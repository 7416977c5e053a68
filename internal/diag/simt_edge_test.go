package diag

import (
	"fmt"
	"strings"
	"testing"
)

// Edge cases of the SIMT region validator (§4.4.3) and the cluster
// window manager.

func TestSIMTIntervalPacing(t *testing.T) {
	// The same region with interval 1 vs 8: slower injection must not be
	// faster, and with a compute-light body should be measurably slower.
	prog := func(interval int) string {
		return fmt.Sprintf(`
	li   t0, 0
	li   t1, 1
	li   t2, 256
	li   s1, 0
ls:	simt.s t0, t1, t2, %d
	add  a0, t0, t0
	xor  a1, a0, t0
	add  s1, s1, a1
	simt.e t0, t2, ls
	ebreak
`, interval)
	}
	fast, _ := runOn(t, F4C16(), build(t, prog(1)))
	slow, _ := runOn(t, F4C16(), build(t, prog(8)))
	if slow.Cycles < fast.Cycles {
		t.Errorf("interval 8 (%d cycles) must not beat interval 1 (%d)", slow.Cycles, fast.Cycles)
	}
	if slow.Cycles < fast.Cycles+256*4 {
		t.Errorf("interval 8 should pace injection: %d vs %d", slow.Cycles, fast.Cycles)
	}
}

func TestSIMTRejectsJALRInside(t *testing.T) {
	src := `
	li   t0, 0
	li   t1, 1
	li   t2, 4
	la   a1, helper
ls:	simt.s t0, t1, t2, 1
	jalr ra, 0(a1)
	simt.e t0, t2, ls
	ebreak
helper:
	addi a0, a0, 1
	ret
	`
	st, _ := runOn(t, F4C16(), build(t, src))
	if st.SIMTRejects != 1 {
		t.Errorf("jalr inside region must reject, rejects=%d", st.SIMTRejects)
	}
	if st.SIMTRegions != 0 {
		t.Errorf("region should not have been pipelined")
	}
}

func TestSIMTRejectsEBreakInside(t *testing.T) {
	src := `
	li   t0, 0
	li   t1, 1
	li   t2, 2
ls:	simt.s t0, t1, t2, 1
	ebreak
	simt.e t0, t2, ls
	ebreak
	`
	st, _ := runOn(t, F4C16(), build(t, src))
	if st.SIMTRejects != 1 {
		t.Errorf("ebreak inside region must reject, rejects=%d", st.SIMTRejects)
	}
}

func TestSIMTRejectsRegionTooLargeForRing(t *testing.T) {
	// A straight-line region of 40 instructions exceeds F4C2's 32 PEs
	// but fits F4C16.
	var b strings.Builder
	b.WriteString("\tli t0, 0\n\tli t1, 1\n\tli t2, 8\n\tli s1, 0\n")
	b.WriteString("ls:\tsimt.s t0, t1, t2, 1\n")
	for i := 0; i < 40; i++ {
		b.WriteString("\tadd s1, s1, t0\n")
	}
	b.WriteString("\tsimt.e t0, t2, ls\n\tebreak\n")
	img := build(t, b.String())

	small, m1 := runOn(t, F4C2(), img)
	if small.SIMTRejects != 1 || small.SIMTRegions != 0 {
		t.Errorf("F4C2 should reject the oversized region: rejects=%d regions=%d",
			small.SIMTRejects, small.SIMTRegions)
	}
	large, m2 := runOn(t, F4C16(), img)
	if large.SIMTRegions != 1 {
		t.Errorf("F4C16 should pipeline it: regions=%d rejects=%d",
			large.SIMTRegions, large.SIMTRejects)
	}
	// Both paths architecturally identical.
	if m1.Digest() != m2.Digest() {
		t.Error("reject and pipeline paths disagree")
	}
}

func TestSIMTForwardBranchDivergence(t *testing.T) {
	// Divergent threads: odd iterations take the forward branch. §4.4.3:
	// "control divergence is not as significant a problem here".
	src := `
	li   t0, 0
	li   t1, 1
	li   t2, 64
	li   s1, 0
	li   s2, 0
ls:	simt.s t0, t1, t2, 1
	andi a0, t0, 1
	beqz a0, sk_even
	add  s1, s1, t0      # odd path
sk_even:
	addi s2, s2, 1       # both paths
	simt.e t0, t2, ls
	li   a1, 0x700
	sw   s1, 0(a1)
	sw   s2, 4(a1)
	ebreak
	`
	img := build(t, src)
	ref := issRun(t, img)
	st, m := runOn(t, F4C16(), img)
	if st.SIMTRegions != 1 {
		t.Fatalf("divergent region should still pipeline (rejects=%d)", st.SIMTRejects)
	}
	if m.LoadWord(0x700) != ref.Mem.LoadWord(0x700) || m.LoadWord(0x704) != ref.Mem.LoadWord(0x704) {
		t.Error("divergent SIMT result mismatch")
	}
}

func TestWindowThrashPingPong(t *testing.T) {
	// Three hot regions far apart cycle round-robin: 2 clusters thrash
	// (LRU reloads every hop) while 16 keep all three resident.
	src := `
	li   s0, 0
	li   s1, 200
	la   s2, far1
	la   s3, far2
	la   s4, near
near:
	addi s0, s0, 1
	bge  s0, s1, done
	jr   s2
done:
	ebreak
	.org 0x2000
far1:
	addi s0, s0, 1
	jr   s3
	.org 0x3000
far2:
	addi s0, s0, 1
	jr   s4
	`
	img := build(t, src)
	small, _ := runOn(t, F4C2(), img)
	large, _ := runOn(t, F4C16(), img)
	if large.LinesFetched >= small.LinesFetched {
		t.Errorf("bigger window should stop the thrash: %d vs %d lines",
			large.LinesFetched, small.LinesFetched)
	}
	if large.Cycles >= small.Cycles {
		t.Errorf("bigger window should be faster: %d vs %d", large.Cycles, small.Cycles)
	}
}

func TestBranchIntoMiddleOfLine(t *testing.T) {
	// §5.1.1: branching to an unaligned-in-line address loads the whole
	// line; earlier instructions are PC-disabled. Architectural result
	// must be exact.
	src := `
	li   a0, 1
	j    mid
	li   a0, 99          # skipped
	li   a0, 98          # skipped
mid:
	addi a0, a0, 10
	li   t0, 0x700
	sw   a0, 0(t0)
	ebreak
	`
	img := build(t, src)
	ref := issRun(t, img)
	_, m := runOn(t, F4C2(), img)
	if m.LoadWord(0x700) != ref.Mem.LoadWord(0x700) {
		t.Errorf("mid-line branch result %d, want %d", m.LoadWord(0x700), ref.Mem.LoadWord(0x700))
	}
}

func TestSIMTRegionFaultPropagates(t *testing.T) {
	// A load whose address turns misaligned mid-region: the validator
	// cannot catch data-dependent faults statically, so the machine must
	// surface the ISS error instead of swallowing it.
	src := `
	li   t0, 0
	li   t1, 2          # stride 2: second iteration is misaligned
	li   t2, 8
	li   s0, 0x100000
ls:	simt.s t0, t1, t2, 1
	add  a0, s0, t0
	lw   a1, 0(a0)
	simt.e t0, t2, ls
	ebreak
	`
	img := build(t, src)
	_, _, err := RunImage(F4C16(), img)
	if err == nil {
		t.Fatal("misaligned load inside SIMT region must return an error")
	}
}
