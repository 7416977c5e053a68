// SIMT demonstrates thread-level pipelining (§4.4, §5.4): the same
// vector kernel is run as an ordinary backward-branch loop and as a
// simt.s/simt.e-annotated region, on machines with 2 and 16 clusters.
// Under SIMT, loop iterations become threads flowing through pipeline
// stages, and throughput scales with the number of clusters.
package main

import (
	"fmt"
	"log"

	"diag"
	"diag/internal/mem"
)

// kernel computes c[i] = a[i]*a[i] + b[i] over n elements; the loop body
// is straight-line, so it is eligible for thread pipelining.
func kernel(simt bool) string {
	loop := `
vl:	# body: one loop instance = one pipelined thread
	add  a0, s0, t0
	flw  fa0, 0(a0)
	add  a1, s1, t0
	flw  fa1, 0(a1)
	fmadd.s fa2, fa0, fa0, fa1
	add  a2, s2, t0
	fsw  fa2, 0(a2)
	addi t0, t0, 4
	blt  t0, t2, vl
`
	if simt {
		loop = `
vl:	simt.s t0, t1, t2, 1
	add  a0, s0, t0
	flw  fa0, 0(a0)
	add  a1, s1, t0
	flw  fa1, 0(a1)
	fmadd.s fa2, fa0, fa0, fa1
	add  a2, s2, t0
	fsw  fa2, 0(a2)
	simt.e t0, t2, vl
`
	}
	return `
_start:
	li   s0, 0x100000
	li   s1, 0x104000
	li   s2, 0x108000
	li   t0, 0
	li   t1, 4
	li   t2, 4096        # 1024 elements * 4 bytes
` + loop + `
	ebreak
`
}

func run(simt bool, cfg diag.Config) diag.Stats {
	img, err := diag.Assemble(kernel(simt))
	if err != nil {
		log.Fatal(err)
	}
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i * 13)
	}
	img.Segments = append(img.Segments,
		mem.Segment{Addr: 0x100000, Data: data},
		mem.Segment{Addr: 0x104000, Data: data})
	res, err := diag.DiAG(cfg).Run(img)
	if err != nil {
		log.Fatal(err)
	}
	return *res.DiAG
}

func main() {
	fmt.Println("c[i] = a[i]^2 + b[i], 1024 iterations")
	fmt.Printf("%-34s %10s %8s %s\n", "mode", "cycles", "IPC", "notes")
	for _, cfg := range []diag.Config{diag.F4C2(), diag.F4C16()} {
		seq := run(false, cfg)
		fmt.Printf("%-34s %10d %8.2f backward-branch loop, datapath reuse\n",
			cfg.Name+" sequential", seq.Cycles, seq.IPC())
		pip := run(true, cfg)
		fmt.Printf("%-34s %10d %8.2f %d threads pipelined, %.2fx vs sequential\n",
			cfg.Name+" simt", pip.Cycles, pip.IPC(), pip.SIMTThreads,
			float64(seq.Cycles)/float64(pip.Cycles))
	}
	fmt.Println("\nWith 16 clusters the pipeline is replicated across spare clusters")
	fmt.Println("(§4.4.1), so IPC scales with PEs rather than with cores.")
}
