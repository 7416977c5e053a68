// Quickstart: assemble a small program, run it on a DiAG machine and on
// the out-of-order baseline, and compare cycle counts.
package main

import (
	"fmt"
	"log"

	"diag"
)

const program = `
	# dot product of two 8-element vectors held in memory
	.data
va:	.float 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0
vb:	.float 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0
	.text
_start:
	la   s0, va
	la   s1, vb
	li   t0, 0          # i
	li   t1, 8
	fcvt.s.w fa0, zero  # acc
loop:
	slli t2, t0, 2
	add  t3, t2, s0
	flw  fa1, 0(t3)
	add  t3, t2, s1
	flw  fa2, 0(t3)
	fmadd.s fa0, fa1, fa2, fa0
	addi t0, t0, 1
	blt  t0, t1, loop
	li   t4, 0x700
	fsw  fa0, 0(t4)
	ebreak
`

func main() {
	img, err := diag.Assemble(program)
	if err != nil {
		log.Fatal(err)
	}

	cfg := diag.F4C2()
	res, err := diag.DiAG(cfg).Run(img)
	if err != nil {
		log.Fatal(err)
	}
	st := *res.DiAG
	fmt.Printf("dot product = %v\n", res.Mem.LoadFloat32(0x700))
	fmt.Printf("DiAG %s:  %5d cycles, IPC %.2f, %d datapath reuses\n",
		cfg.Name, st.Cycles, st.IPC(), st.ReuseHits)

	baseRes, err := diag.OoO(diag.Baseline()).Run(img)
	if err != nil {
		log.Fatal(err)
	}
	base := *baseRes.Baseline
	fmt.Printf("OoO 8-wide: %5d cycles, IPC %.2f\n", base.Cycles, base.IPC())
	fmt.Printf("relative performance: %.2fx\n", float64(base.Cycles)/float64(st.Cycles))

	e := diag.Energy(cfg, st)
	be := diag.BaselineEnergy(diag.Baseline(), base, cfg.FreqMHz)
	fmt.Printf("energy efficiency:    %.2fx\n", diag.Efficiency(e, be))
}
