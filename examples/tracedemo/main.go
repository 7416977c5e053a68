// Tracedemo: attach the cycle-level observability layer to a DiAG run,
// print the derived metrics, and write a Chrome trace-event file
// loadable at https://ui.perfetto.dev.
//
// The program is a strided checksum loop — long enough that the
// occupancy timeseries has shape, small enough that the whole trace is
// a few thousand events. See docs/OBSERVABILITY.md for the event
// taxonomy and a walkthrough of the resulting Perfetto view.
package main

import (
	"fmt"
	"log"
	"os"

	"diag"
)

const program = `
	# sum buf[0..255] into 0x3000, then re-sum every 4th word
	.data
buf:	.space 1024
	.text
_start:
	la   s0, buf
	li   t0, 0          # i
	li   t1, 256
init:
	sw   t0, 0(s0)
	addi s0, s0, 4
	addi t0, t0, 1
	blt  t0, t1, init
	la   s0, buf
	li   t0, 0
	li   s1, 0          # acc
sum:
	lw   t2, 0(s0)
	add  s1, s1, t2
	addi s0, s0, 16     # stride 4 words
	addi t0, t0, 4
	blt  t0, t1, sum
	li   t3, 0x3000
	sw   s1, 0(t3)
	ebreak
`

func main() {
	img, err := diag.Assemble(program)
	if err != nil {
		log.Fatal(err)
	}

	// One tee, two consumers: the collector retains the raw stream for
	// export, the registry folds it into counters and histograms.
	col := diag.NewEventCollector(0)
	met := diag.NewMetrics(0)
	res, err := diag.DiAG(diag.F4C2()).Run(img,
		diag.WithObserver(diag.ObserverTee(col, met)))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("retired %d in %d cycles (IPC %.2f)\n\n", res.Retired, res.Cycles, res.DiAG.IPC())
	fmt.Printf("events: %d total, %d reuse hits, %d line loads\n\n",
		col.Total(), col.Count(diag.EventClusterReuse), col.Count(diag.EventClusterLoad))
	fmt.Print(met.Summary())

	f, err := os.Create("trace.json")
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := col.WriteChromeTrace(f, diag.ChromeTraceOptions{UnitNames: []string{"ring 0"}}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nwrote trace.json — open it at https://ui.perfetto.dev")
}
