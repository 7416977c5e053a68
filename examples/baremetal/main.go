// Baremetal mirrors the paper's FPGA proof of concept (§6.2): the
// integer-only I4C2 configuration (32 PEs, 100 MHz, no L2) running
// preloaded bare-metal RISC-V programs to verify basic functionality.
package main

import (
	"fmt"
	"log"

	"diag"
)

// The same kind of smoke programs one would preload on the VC709 board:
// arithmetic, memory, control flow, and a recursive call.
var programs = []struct {
	name string
	src  string
	addr uint32
	want uint32
}{
	{
		name: "fibonacci(16)",
		src: `
	li   a0, 16
	li   t0, 0
	li   t1, 1
	li   t2, 0
fib:	beq  t2, a0, done
	add  t3, t0, t1
	mv   t0, t1
	mv   t1, t3
	addi t2, t2, 1
	j    fib
done:	li   t4, 0x700
	sw   t0, 0(t4)
	ebreak
`,
		addr: 0x700, want: 987,
	},
	{
		name: "bubble sort max",
		src: `
	.data
arr:	.word 170, 45, 75, 90, 802, 24, 2, 66
	.text
_start:
	la   s0, arr
	li   s1, 8
	li   t0, 0          # pass
outer:	li   t1, 0          # i
inner:	addi t2, s1, -1
	bge  t1, t2, onext
	slli t3, t1, 2
	add  t3, t3, s0
	lw   t4, 0(t3)
	lw   t5, 4(t3)
	ble  t4, t5, noswap
	sw   t5, 0(t3)
	sw   t4, 4(t3)
noswap:	addi t1, t1, 1
	j    inner
onext:	addi t0, t0, 1
	blt  t0, s1, outer
	lw   t6, 28(s0)     # arr[7] = max
	li   a1, 0x700
	sw   t6, 0(a1)
	ebreak
`,
		addr: 0x700, want: 802,
	},
	{
		name: "recursive sum 1..10",
		src: `
	li   sp, 0x80000
	li   a0, 10
	call rsum
	li   t0, 0x700
	sw   a0, 0(t0)
	ebreak
rsum:	beqz a0, base
	addi sp, sp, -8
	sw   ra, 0(sp)
	sw   a0, 4(sp)
	addi a0, a0, -1
	call rsum
	lw   t1, 4(sp)
	add  a0, a0, t1
	lw   ra, 0(sp)
	addi sp, sp, 8
	ret
base:	ret
`,
		addr: 0x700, want: 55,
	},
}

func main() {
	cfg := diag.I4C2()
	fmt.Printf("%s: %s, %d PEs, %d MHz (FPGA proof-of-concept configuration, §6.2)\n\n",
		cfg.Name, cfg.ISA, cfg.TotalPEs(), cfg.FreqMHz)
	for _, p := range programs {
		img, err := diag.Assemble(p.src)
		if err != nil {
			log.Fatalf("%s: %v", p.name, err)
		}
		res, err := diag.DiAG(cfg).Run(img)
		if err != nil {
			log.Fatalf("%s: %v", p.name, err)
		}
		st, got := res.DiAG, res.Mem.LoadWord(p.addr)
		status := "ok"
		if got != p.want {
			status = fmt.Sprintf("FAIL (want %d)", p.want)
		}
		fmt.Printf("%-20s -> %-6d %-4s  %6d cycles (%.1f us at %d MHz), IPC %.2f\n",
			p.name, got, status, st.Cycles,
			float64(st.Cycles)/float64(cfg.FreqMHz), cfg.FreqMHz, st.IPC())
	}
}
