// Fleet: a pooled C-RAN cluster of 4 Concordia servers sharing 40 cells.
// Cells land on their nearest server within the fronthaul-latency budget;
// between placement epochs the coordinator migrates cells off servers under
// sustained load/miss pressure. One migration is forced at epoch 2 so the
// mechanism is always visible, whatever the pressure profile — watch the
// per-epoch table and the final placement spread.
//
// With -slo the streaming SLO plane runs on every server and the fleet-merged
// window rows land in the given CSV file; -slo-report writes the markdown
// fleet-health report (per-slice budget burn, top burning cells, alert
// timeline). Both are byte-identical at any worker count.
package main

import (
	"flag"
	"fmt"

	"concordia"
	"concordia/internal/cli"
)

func main() {
	sloFlags := cli.BindSLO(flag.CommandLine)
	flag.Parse()

	cfg := concordia.FleetConfig{
		Cells:          40,
		Servers:        4,
		CoresPerServer: 6,
		Load:           0.5,
		Horizon:        concordia.Seconds(0.5),
		Epochs:         5,
		// Demonstrate the migration machinery deterministically: epoch 2
		// starts by moving the most-loaded server's hottest movable cell.
		ForceMigrateEpoch: 2,
		Seed:              11,
		TrainingSlots:     400,
		SLO:               sloFlags.Options(),
	}
	res, err := concordia.RunFleet(cfg)
	if err != nil {
		panic(err)
	}
	fmt.Print(res)

	fmt.Println("\nepoch  migrations  dags     misses  req-cores  max-pressure")
	for e, ep := range res.Epochs {
		fmt.Printf("%-6d %-11d %-8d %-7d %-10d %.3f\n",
			e, ep.Migrations, ep.DAGs, ep.Misses, ep.RequiredCores, ep.MaxPressure)
	}

	perServer := make([]int, cfg.Servers)
	for _, s := range res.Assign {
		if s >= 0 {
			perServer[s]++
		}
	}
	fmt.Println("\nfinal placement (cells per server):")
	for s, n := range perServer {
		fmt.Printf("  server %d: %d cells\n", s, n)
	}

	if res.SLO != nil {
		fmt.Println("\nfleet SLO slices:")
		for _, s := range res.SLO.SliceSummaries() {
			fmt.Printf("  %-6s attempts %-7d misses %-5d budget remaining %.3f\n",
				s.Name, s.Attempts, s.Misses, s.BudgetRemaining)
		}
		if err := sloFlags.Write(res.SLO); err != nil {
			panic(err)
		}
	}
}
