// Euclid reproduces the paper's running example (Figure 3): the
// five-instruction Euclidean-distance kernel whose dataflow graph DiAG
// implicitly constructs on its register lanes. The program computes
// sqrt((x1-x2)^2 + (y1-y2)^2).
//
// Figure 3 assumes 1-cycle operations and shows the DFG completing in 3
// cycles (two independent subtracts, two independent multiplies, one
// add). This example runs the real kernel, prints the disassembly —
// i.e., the instructions as they would be assigned to PEs i0..i4 in
// program order — and reports how DiAG overlapped them.
package main

import (
	"fmt"
	"log"

	"diag"
)

const program = `
	.data
pts:	.float 1.0, 2.0, 4.0, 6.0     # x1 y1 x2 y2
	.text
_start:
	la   t0, pts
	flw  fa0, 0(t0)       # x1
	flw  fa1, 4(t0)       # y1
	flw  fa2, 8(t0)       # x2
	flw  fa3, 12(t0)      # y2

	# ---- the Figure 3 kernel: i0..i4 in program order ----
	fsub.s fa4, fa0, fa2  # i0: dx = x1 - x2
	fsub.s fa5, fa1, fa3  # i1: dy = y1 - y2
	fmul.s fa4, fa4, fa4  # i2: dx*dx
	fmul.s fa5, fa5, fa5  # i3: dy*dy
	fadd.s fa6, fa4, fa5  # i4: dx2 + dy2
	# -------------------------------------------------------

	fsqrt.s fa7, fa6
	li   t1, 0x700
	fsw  fa7, 0(t1)
	ebreak
`

func main() {
	img, err := diag.Assemble(program)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Instructions in program order (one per PE, §4.1):")
	fmt.Print(diag.Disassemble(img))

	res, err := diag.DiAG(diag.F4C2()).Run(img)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndistance((1,2),(4,6)) = %v (want 5)\n", res.Mem.LoadFloat32(0x700))
	fmt.Printf("cycles %d, retired %d, IPC %.2f\n", res.Cycles, res.Retired, res.DiAG.IPC())
	fmt.Println("\nIn Figure 3 terms: i0/i1 execute concurrently as soon as their")
	fmt.Println("register lanes turn valid, i2/i3 follow one step later, i4 last —")
	fmt.Println("the lanes implicitly resolved every RAW dependence without rename,")
	fmt.Println("issue, or dispatch structures (paper Table 1).")
}
