// Command experiments regenerates the paper's tables and figures on the
// simulated platform and prints them as text tables.
//
// Usage:
//
//	experiments [-seed N] [-scale F] [-list] [name ...]
//
// With no names, every experiment runs in order. Scale 1.0 runs
// full-quality durations; smaller values trade statistical depth for speed.
//
// -trace and -metrics capture the canonical collocation scenario, -autopsy
// analyses it (or, with -faults, a chaos run), and -slo and -slo-report run
// the chaos testbed with the streaming SLO plane; each writes its files and
// exits.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"concordia/internal/cli"
	"concordia/internal/experiments"
)

// writeCSV writes an experiment result's raw data series to
// <dir>/<name>.csv when the result has a CSV form.
func writeCSV(dir, name string, res fmt.Stringer) error {
	if _, ok := res.(experiments.Tabular); !ok {
		return nil
	}
	path := filepath.Join(dir, name+".csv")
	if err := cli.WriteFile(path, func(w io.Writer) error { return experiments.WriteCSV(res, w) }); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}

func main() {
	seed := flag.Uint64("seed", 42, "deterministic seed")
	scale := cli.Scale(flag.CommandLine, 0.25, experiments.LongestBase, "duration scale `factor` (1.0 = full experiment quality)")
	training := cli.Training(flag.CommandLine)
	workers := cli.Workers(flag.CommandLine)
	list := flag.Bool("list", false, "list experiment names and exit")
	csvDir := flag.String("csv", "", "also write raw data series as <dir>/<name>.csv where supported")
	traceOut := flag.String("trace", "", "capture the canonical scenario's Chrome trace-event JSON (Perfetto) to this file and exit")
	metricsOut := flag.String("metrics", "", "capture the canonical scenario's metrics time-series CSV to this file and exit")
	faultsSpec := flag.String("faults", "", `run the chaos study with this fault spec ("sweep" for the per-class ladder) and exit`)
	autopsyOut := flag.String("autopsy", "", `run the canonical scenario (or, with -faults, a chaos run) through the analysis engine and write the markdown autopsy report to this file`)
	sloFlags := cli.BindSLO(flag.CommandLine)
	profiles := cli.BindProfiles(flag.CommandLine)
	flag.Parse()
	stopProfiles := profiles.Start()
	defer stopProfiles()

	if *list {
		for _, n := range experiments.Names {
			fmt.Println(n)
		}
		return
	}
	o := experiments.Options{Seed: *seed, Scale: *scale, TrainingSlots: *training, Workers: *workers}
	if *autopsyOut != "" {
		if *faultsSpec == "sweep" {
			cli.Exit(2, errors.New(`-autopsy needs a concrete fault spec, not "sweep"`))
		}
		a, _, err := experiments.CaptureAutopsy(o, *faultsSpec)
		if err != nil {
			cli.Exit(1, err)
		}
		if err := cli.WriteFile(*autopsyOut, a.WriteReport); err != nil {
			cli.Exit(1, err)
		}
		return
	}
	if opts := sloFlags.Options(); opts != nil {
		if *faultsSpec == "sweep" {
			cli.Exit(2, errors.New(`-slo needs a concrete fault spec, not "sweep"`))
		}
		sys, err := experiments.CaptureSLO(o, *faultsSpec, *opts)
		if err != nil {
			cli.Exit(1, err)
		}
		if err := sloFlags.Write(sys.SLO()); err != nil {
			cli.Exit(1, err)
		}
		return
	}
	if *traceOut != "" || *metricsOut != "" {
		sys, err := experiments.CaptureTelemetry(o)
		if err != nil {
			cli.Exit(1, err)
		}
		if err := cli.WriteFile(*traceOut, sys.WriteChromeTrace); err != nil {
			cli.Exit(1, err)
		}
		if err := cli.WriteFile(*metricsOut, sys.WriteMetricsCSV); err != nil {
			cli.Exit(1, err)
		}
		return
	}
	if *faultsSpec != "" {
		res, err := experiments.RunChaos(o, *faultsSpec)
		if err != nil {
			cli.Exit(1, err)
		}
		fmt.Println(res.String())
		if *csvDir != "" {
			if err := writeCSV(*csvDir, "chaos", res); err != nil {
				cli.Exit(1, err)
			}
		}
		return
	}
	names := flag.Args()
	if len(names) == 0 && *csvDir == "" {
		// Full regeneration goes through RunAll so experiments fan out
		// across workers; the rendered output is identical to running each
		// name in order.
		if err := experiments.RunAll(o, os.Stdout); err != nil {
			cli.Exit(1, err)
		}
		return
	}
	if len(names) == 0 {
		names = experiments.Names
	}
	for _, name := range names {
		res, err := experiments.Run(name, o, os.Stdout)
		if err != nil {
			cli.Exit(1, err)
		}
		if *csvDir != "" {
			if err := writeCSV(*csvDir, name, res); err != nil {
				cli.Exit(1, err)
			}
		}
	}
}
