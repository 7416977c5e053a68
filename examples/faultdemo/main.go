// Faultdemo: flip bits in a running DiAG machine's register lanes and
// watch the golden-model differential checker classify each run —
// masked, SDC (silent data corruption), detected, crash, or hang. The
// campaign is deterministic: same seed, same faults, same table.
package main

import (
	"context"
	"fmt"
	"log"

	"diag"
)

const program = `
	# checksum 64 words of memory into 0x2000
	.data
buf:	.word 3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3
	.word 2, 3, 8, 4, 6, 2, 6, 4, 3, 3, 8, 3, 2, 7, 9, 5
	.word 0, 2, 8, 8, 4, 1, 9, 7, 1, 6, 9, 3, 9, 9, 3, 7
	.word 5, 1, 0, 5, 8, 2, 0, 9, 7, 4, 9, 4, 4, 5, 9, 2
	.text
_start:
	la   s0, buf
	li   t0, 0          # i
	li   t1, 64
	li   s1, 0          # acc
loop:
	lw   t2, 0(s0)
	add  s1, s1, t2
	addi s0, s0, 4
	addi t0, t0, 1
	blt  t0, t1, loop
	li   t3, 0x2000
	sw   s1, 0(t3)
	ebreak
`

func main() {
	img, err := diag.Assemble(program)
	if err != nil {
		log.Fatal(err)
	}

	// 20 runs, each perturbed by one seed-derived bit-flip in a
	// register lane of the F4C2 machine mid-execution.
	rep, err := diag.FaultCampaign(context.Background(), diag.DiAG(diag.F4C2()), img,
		diag.WithFaultTrials(20),
		diag.WithFaultSeed(42),
		diag.WithFaultSites(diag.FaultSiteLane))
	if err != nil {
		log.Fatal(err)
	}

	for i, t := range rep.Trials {
		fmt.Printf("run %2d: %-36s -> %s\n", i, t.Fault, t.Outcome)
	}
	fmt.Println()
	fmt.Print(rep.Table())
}
