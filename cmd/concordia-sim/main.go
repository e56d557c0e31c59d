// Command concordia-sim runs a single vRAN collocation scenario and prints
// the full report: reliability, latency tails, reclaimed CPU, scheduling
// events, and collocated workload throughput.
//
// Usage:
//
//	concordia-sim -config 20mhz -cells 7 -cores 8 -sched concordia \
//	              -workload redis -load 0.25 -duration 60 -seed 42
//
// With -trace the run's event timeline is exported as Chrome trace-event
// JSON (open in ui.perfetto.dev); -metrics exports the per-slot metrics time
// series as CSV. Both are byte-identical for a fixed seed regardless of
// -workers.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"concordia"
	"concordia/internal/analysis"
	"concordia/internal/cli"
	"concordia/internal/traffic"
	"concordia/internal/workloads"
)

func main() {
	config := flag.String("config", "20mhz", "cell class: 20mhz, 100mhz or lte")
	cells := flag.Int("cells", 7, "number of cells")
	cores := flag.Int("cores", 8, "vRAN pool cores")
	sched := flag.String("sched", "concordia", "scheduler: concordia, flexran, shenango, utilization")
	workload := flag.String("workload", "isolated", "collocated workload: isolated, redis, nginx, tpcc, mlperf, mix")
	load := flag.Float64("load", 0.5, "cell traffic load (0,1]")
	duration := cli.Seconds(flag.CommandLine, "duration", 60, "simulated `seconds`")
	seed := flag.Uint64("seed", 42, "deterministic seed")
	useAccel := flag.Bool("accel", false, "offload LDPC to the modeled FPGA")
	accelDevices := flag.Int("accel-devices", 0, "accelerator cards in the fleet (0/1 = single default FPGA; needs -accel)")
	accelVFs := flag.Int("accel-vfs", 0, "SR-IOV virtual functions per accelerator card (0 = one; needs -accel)")
	accelQueue := flag.Int("accel-queue", 0, "per-VF per-queue-group admission depth (0 = unbounded; needs -accel)")
	offloadBatch := flag.Int("offload-batch", 0, "coalesce up to N same-kind offloads per DMA transfer (0/1 = per-task; needs -accel)")
	includeMAC := flag.Bool("mac", false, "multiplex the MAC-layer extension DAGs (§7)")
	replayPath := flag.String("replay", "", "CSV traffic trace (tracegen format) to replay for both directions")
	traceScale := flag.Float64("trace-scale", 1, "volume multiplier for replayed traffic traces")
	minCores := flag.Bool("min-cores", false, "search for the minimum core count first")
	workers := cli.Workers(flag.CommandLine)
	traceOut := flag.String("trace", "", "write the run's Chrome trace-event JSON (Perfetto) to this file")
	metricsOut := flag.String("metrics", "", "write the run's metrics time series CSV to this file")
	perCell := flag.Bool("per-cell", false, "print the per-cell deadline-miss and queueing-delay breakdown")
	faultsSpec := flag.String("faults", "", `deterministic fault injection spec, e.g. "lane=0.05,stuck=0.01,burst=5" or "all" (see internal/faults)`)
	dropLate := flag.Bool("drop-late", false, "abandon DAGs whose deadline has passed (counted as dropped misses)")
	eventsOut := flag.String("events", "", "write the run's raw telemetry events CSV to this file (feed to cmd/autopsy)")
	sloFlags := cli.BindSLO(flag.CommandLine)
	autopsyOut := flag.String("autopsy", "", "write the run's markdown autopsy report (miss attribution + calibration) to this file")
	profiles := cli.BindProfiles(flag.CommandLine)
	flag.Parse()
	stopProfiles := profiles.Start()
	defer stopProfiles()

	var cfg concordia.Config
	switch *config {
	case "20mhz":
		cfg = concordia.Scenario20MHz(*cells, *cores)
	case "100mhz":
		cfg = concordia.Scenario100MHz(*cells, *cores)
	case "lte":
		cfg = concordia.ScenarioLTE(*cells, *cores)
	default:
		fmt.Fprintf(os.Stderr, "unknown config %q\n", *config)
		os.Exit(2)
	}
	cfg.Scheduler = concordia.SchedulerKind(*sched)
	cfg.Load = *load
	cfg.Seed = *seed
	cfg.UseAccel = *useAccel
	cfg.AccelDevices = *accelDevices
	cfg.AccelVFs = *accelVFs
	cfg.AccelQueueDepth = *accelQueue
	cfg.OffloadBatch = *offloadBatch
	cfg.Workers = *workers
	wl, ok := map[string]concordia.WorkloadKind{
		"isolated": concordia.Isolated, "redis": concordia.Redis,
		"nginx": concordia.Nginx, "tpcc": concordia.TPCC,
		"mlperf": concordia.MLPerf, "mix": concordia.Mix,
	}[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workload)
		os.Exit(2)
	}
	cfg.Workload = wl
	cfg.IncludeMAC = *includeMAC
	cfg.DropLateDAGs = *dropLate
	if *faultsSpec != "" {
		fc, err := concordia.ParseFaults(*faultsSpec)
		if err != nil {
			cli.Exit(2, err)
		}
		if fc.Enabled() {
			cfg.Faults = &fc
		}
	}
	cfg.SLO = sloFlags.Options()
	// -per-cell needs the instrumented path too: queueing delays are observed
	// per dispatch only when telemetry is on. The SLO plane works without
	// telemetry, but attaching the recorder lets its window/alert events land
	// in the trace exports as well.
	if *traceOut != "" || *metricsOut != "" || *perCell || *eventsOut != "" || *autopsyOut != "" || cfg.SLO != nil {
		cfg.Telemetry = concordia.NewTelemetry(concordia.TelemetryOptions{})
	}
	if *replayPath != "" {
		f, err := os.Open(*replayPath)
		if err != nil {
			cli.Exit(1, err)
		}
		tr, err := traffic.ReadCSV(f)
		f.Close()
		if err != nil {
			cli.Exit(1, err)
		}
		cfg.ULTrace, cfg.DLTrace = tr, tr
		cfg.TraceScale = *traceScale
	}

	if *minCores {
		n, err := concordia.MinimumCores(cfg, 16, 0.9999, concordia.Seconds(10))
		if err != nil {
			cli.Exit(1, err)
		}
		fmt.Printf("minimum cores: %d\n", n)
		cfg.PoolCores = n
	}

	sys, err := concordia.NewSystem(cfg)
	if err != nil {
		cli.Exit(1, err)
	}
	rep := sys.Run(concordia.Seconds(*duration))
	fmt.Print(rep)
	if *perCell {
		fmt.Print(rep.PerCellString())
	}
	for _, exp := range []struct {
		path  string
		write func(io.Writer) error
	}{
		{*traceOut, sys.WriteChromeTrace},
		{*metricsOut, sys.WriteMetricsCSV},
		{*eventsOut, func(w io.Writer) error { return sys.Telemetry().Trace.WriteEventsCSV(w) }},
	} {
		if err := cli.WriteFile(exp.path, exp.write); err != nil {
			cli.Exit(1, err)
		}
	}
	if err := sloFlags.Write(sys.SLO()); err != nil {
		cli.Exit(1, err)
	}
	if *autopsyOut != "" {
		a := analysis.Analyze(sys.Telemetry().Trace.Events(), analysis.Options{
			PoolCores: cfg.PoolCores,
			Deadline:  cfg.Deadline,
		})
		if err := cli.WriteFile(*autopsyOut, a.WriteReport); err != nil {
			cli.Exit(1, err)
		}
	}
	if wl != concordia.Isolated && wl != concordia.Mix {
		p, _ := workloads.ProfileOf(wl)
		achieved := rep.WorkloadThroughput(wl)
		ideal := p.Ideal(cfg.PoolCores, *duration)
		fmt.Printf("workload        %s: %.0f %s (%.1f%% of no-vRAN ideal)\n",
			wl, achieved / *duration, p.Unit, 100*achieved/ideal)
	}
}
