// Interrupt demonstrates precise interrupts on DiAG (§5.1.4): register
// lanes serve as the reorder buffer, so when a trap arrives at
// instruction i, everything before i has retired, the PEs after i are
// disabled by the PC-lane mismatch, and the next cluster loads the
// handler.
package main

import (
	"fmt"
	"log"

	"diag"
)

const program = `
	# main loop: keeps a heartbeat counter in memory
	li   a0, 0
	li   a1, 0x700
loop:
	addi a0, a0, 1
	sw   a0, 0(a1)
	j    loop

	.org 0x2000
handler:
	# trap handler: record a marker and stop
	li   t0, 0xDEAD
	sw   t0, 4(a1)
	ebreak
`

func main() {
	img, err := diag.Assemble(program)
	if err != nil {
		log.Fatal(err)
	}
	// Fire after 10k retired instructions, vectoring to the handler.
	res, err := diag.DiAG(diag.F4C2()).Run(img, diag.WithInterrupt(10_000, 0x2000))
	if err != nil {
		log.Fatal(err)
	}

	cpu, m := res.CPU, res.Mem
	fmt.Printf("interrupted at PC 0x%x after %d instructions\n", cpu.EPC, cpu.InterruptAt)
	fmt.Printf("heartbeat = %d, a0 = %d  (precise: every older instruction retired)\n",
		m.LoadWord(0x700), cpu.X[10])
	fmt.Printf("handler marker = 0x%X\n", m.LoadWord(0x704))
	fmt.Printf("total: %d instructions in %d cycles\n", res.Retired, res.Cycles)
	fmt.Println()
	fmt.Println("The PC lane retires in order like a reorder buffer (§5.1.4):")
	fmt.Println("the PE at the trap point rewrote the PC lane to the vector, every")
	fmt.Println("younger PE saw the mismatch and was disabled, and the control unit")
	fmt.Println("loaded the handler's I-line into the next free cluster.")
}
