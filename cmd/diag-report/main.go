// diag-report prints the paper's structural tables and the Figure-8
// style organization dump of a DiAG configuration.
//
// Usage:
//
//	diag-report -table1 -table2 -table3
//	diag-report -org F4C2
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"diag"
	"diag/internal/cliutil"
)

func main() {
	core := cliutil.Flags(flag.CommandLine)
	t1 := flag.Bool("table1", false, "Table 1: stage comparison with an OoO processor")
	t2 := flag.Bool("table2", false, "Table 2: evaluated configurations")
	t3 := flag.Bool("table3", false, "Table 3: area and power breakdown")
	org := flag.String("org", "", "Figure 8-style organization dump of a configuration: "+strings.Join(diag.Machines("diag"), ", "))
	flag.Parse()

	w, err := core.Output()
	if err != nil {
		fmt.Fprintln(os.Stderr, "diag-report:", err)
		os.Exit(1)
	}
	defer w.Close()

	any := false
	if *t1 {
		fmt.Fprintln(w, diag.Table1())
		any = true
	}
	if *t2 {
		fmt.Fprintln(w, diag.Table2())
		any = true
	}
	if *t3 {
		fmt.Fprintln(w, diag.Table3())
		any = true
	}
	if *org != "" {
		if err := dumpOrg(w, *org); err != nil {
			fmt.Fprintln(os.Stderr, "diag-report:", err)
			os.Exit(1)
		}
		any = true
	}
	if !any {
		flag.Usage()
		os.Exit(2)
	}
}

// dumpOrg prints the machine hierarchy of Figure 8: rings containing
// clusters containing PEs, with the memory system underneath.
func dumpOrg(w io.Writer, name string) error {
	m, err := diag.MachineByName(name, "diag")
	if err != nil {
		return fmt.Errorf("-org: %w", err)
	}
	cfg := *m.DiAG
	fmt.Fprintf(w, "%s — %s, %d MHz, %d PEs total\n", cfg.Name, cfg.ISA, cfg.FreqMHz, cfg.TotalPEs())
	for r := 0; r < cfg.Rings; r++ {
		fmt.Fprintf(w, "└─ dataflow ring %d (control unit, 512-bit bus)\n", r)
		for c := 0; c < cfg.Clusters; c++ {
			fmt.Fprintf(w, "   ├─ processing cluster %d: %d PEs, %d register lanes, lane buffer every %d PEs, LSU + %d memory-lane entries\n",
				c, cfg.PEsPerCluster, 32, cfg.LaneBufferEvery, cfg.MemLaneLines)
			if cfg.Clusters > 4 && c == 1 {
				fmt.Fprintf(w, "   ├─ ... (%d more clusters)\n", cfg.Clusters-3)
				c = cfg.Clusters - 2
			}
		}
	}
	fmt.Fprintf(w, "memory: %dKB L1I (direct-mapped), %dKB L1D (%d banks)",
		cfg.L1ISize>>10, cfg.L1DSize>>10, cfg.L1DBanks)
	if cfg.L2Size > 0 {
		fmt.Fprintf(w, ", %dMB unified L2", cfg.L2Size>>20)
	}
	fmt.Fprintf(w, ", DRAM %d cycles\n", cfg.DRAMLatency)
	return nil
}
