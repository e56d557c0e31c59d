// Command tracegen emits multi-cell per-TTI traffic traces as CSV
// (tti,cell0,cell1,... in bytes), using the §2.2-calibrated generator.
//
// Usage:
//
//	tracegen -cells 3 -slots 10000 -load 0.1 -peak 5120 -seed 7 > trace.csv
package main

import (
	"flag"
	"fmt"
	"os"

	"concordia/internal/cli"
	"concordia/internal/traffic"
)

func main() {
	cells := flag.Int("cells", 3, "number of cells")
	slots := flag.Int("slots", 10000, "TTIs to generate")
	load := flag.Float64("load", 0.1, "cell traffic load (0,1]")
	peak := flag.Int("peak", 5120, "per-cell per-slot peak bytes")
	seed := flag.Uint64("seed", 7, "deterministic seed")
	stats := flag.Bool("stats", false, "print summary statistics instead of the trace")
	flag.Parse()

	tr, err := traffic.GenerateTrace(traffic.Config{
		Cells: *cells, Load: *load, PeakSlotBytes: *peak, Seed: *seed}, *slots)
	if err != nil {
		cli.Exit(1, err)
	}
	if *stats {
		var single float64
		for c := 0; c < *cells; c++ {
			single += tr.IdleFraction(c)
		}
		fmt.Printf("cells            %d\n", *cells)
		fmt.Printf("slots            %d\n", *slots)
		fmt.Printf("single idle      %.1f%%\n", 100*single/float64(*cells))
		fmt.Printf("aggregate idle   %.1f%%\n", 100*tr.IdleFraction(-1))
		return
	}
	// WriteCSV flushes and returns the first write error: a full disk or a
	// closed pipe must fail the command, not truncate the trace silently.
	if err := tr.WriteCSV(os.Stdout); err != nil {
		cli.Exit(1, err)
	}
}
