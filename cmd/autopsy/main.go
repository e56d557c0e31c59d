// Command autopsy explains deadline misses. It feeds a telemetry event
// trace — either captured earlier with `concordia-sim -events` or produced
// by running a scenario inline — through the deterministic analysis engine
// (internal/analysis) and renders the markdown autopsy report: per-DAG
// critical paths, miss-cause attribution (the per-cause counts partition the
// total miss count exactly), and the predictor calibration table.
//
// Usage:
//
//	autopsy -events trace_events.csv            # analyse a captured trace
//	autopsy -seed 42 -scale 0.5                 # run the canonical scenario inline
//	autopsy -faults "stuck=0.05" -csv out/      # chaos run + CSV exports
//
// Output bytes are deterministic: identical for a fixed seed at any -workers
// count.
package main

import (
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"

	"concordia/internal/analysis"
	"concordia/internal/cli"
	"concordia/internal/experiments"
	"concordia/internal/sim"
	"concordia/internal/telemetry"
)

func main() {
	eventsPath := flag.String("events", "", "events CSV captured with `concordia-sim -events` (empty = run a scenario inline)")
	seed := flag.Uint64("seed", 42, "deterministic seed (inline scenario)")
	scale := cli.Scale(flag.CommandLine, 0.25, experiments.LongestBase, "duration scale `factor` (inline scenario)")
	training := cli.Training(flag.CommandLine)
	workers := cli.Workers(flag.CommandLine)
	faultsSpec := flag.String("faults", "", "fault spec for an inline chaos run (empty = canonical collocation scenario)")
	poolCores := flag.Int("pool-cores", 0, "pool core count for attribution (0 = infer from the trace)")
	deadlineUs := flag.Float64("deadline-us", 0, "slot deadline in us for attribution (0 = infer from the trace)")
	reportOut := flag.String("report", "", "write the markdown report to this file (default stdout)")
	csvDir := flag.String("csv", "", "also write causes.csv, misses.csv and calibration.csv into this directory")
	flag.Parse()

	var a *analysis.Autopsy
	if *eventsPath != "" {
		f, err := os.Open(*eventsPath)
		if err != nil {
			cli.Exit(1, err)
		}
		events, err := telemetry.ReadEventsCSV(f)
		f.Close()
		if err != nil {
			cli.Exit(1, err)
		}
		a = analysis.Analyze(events, analysis.Options{
			PoolCores: *poolCores,
			Deadline:  sim.Time(*deadlineUs * 1000),
		})
	} else {
		o := experiments.Options{Seed: *seed, Scale: *scale, TrainingSlots: *training, Workers: *workers}
		var err error
		a, _, err = experiments.CaptureAutopsy(o, *faultsSpec)
		if err != nil {
			cli.Exit(1, err)
		}
	}

	if *reportOut != "" {
		if err := cli.WriteFile(*reportOut, a.WriteReport); err != nil {
			cli.Exit(1, err)
		}
	} else if err := a.WriteReport(os.Stdout); err != nil {
		cli.Exit(1, err)
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			cli.Exit(1, err)
		}
		for _, exp := range []struct {
			name  string
			write func(io.Writer) error
		}{
			{"causes.csv", a.WriteCausesCSV},
			{"misses.csv", a.WriteMissesCSV},
			{"calibration.csv", a.WriteCalibrationCSV},
		} {
			if err := cli.WriteFile(filepath.Join(*csvDir, exp.name), exp.write); err != nil {
				cli.Exit(1, err)
			}
		}
	}
	if !a.PartitionHolds() {
		cli.Exit(1, errors.New("attribution partition invariant violated"))
	}
}
