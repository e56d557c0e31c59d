package experiments

import (
	"bytes"
	"fmt"
	"io"

	"concordia/internal/parallel"
	"concordia/internal/ran"
)

// experiment is one registry entry: a name and the function that runs it.
type experiment struct {
	name string
	run  func(Options) (fmt.Stringer, error)
}

// entry adapts a RunXxx function to the registry.
func entry[R fmt.Stringer](name string, run func(Options) (R, error)) experiment {
	return experiment{name, func(o Options) (fmt.Stringer, error) { return run(o) }}
}

// registry lists every experiment in canonical order.
var registry = []experiment{
	entry("fig3", RunFig3Traffic),
	entry("pooling", RunPoolingGaussian),
	entry("fig4a", RunFig4Utilization),
	entry("fig4b", RunFig4Violations),
	entry("fig6", RunFig6LDPCScaling),
	entry("fig7", RunFig7Leaves),
	entry("fig8a", RunFig8Reclaimed),
	entry("fig8b", RunFig8Workloads),
	entry("fig9", RunFig9Cache),
	entry("fig10", RunFig10SchedLatency),
	entry("fig11", RunFig11TailLatency),
	entry("fig12", RunFig12Cores),
	entry("fig13", RunFig13PWCET),
	entry("fig14", func(o Options) (*Fig14Result, error) { return RunFig14Models(o, ran.TaskLDPCDecode) }),
	entry("fig15a", RunFig15Overhead),
	entry("fig15b", RunFig15Deadline),
	entry("table3", RunTable3FPGA),
	entry("table4", RunTable4Offload),
	entry("fig17", RunFig17PerTask),
	entry("ablation", RunAblation),
	entry("extension", RunMACExtension),
	entry("calibration", RunCalibration),
	entry("chaos", func(o Options) (*ChaosResult, error) { return RunChaos(o, "sweep") }),
	entry("predcal", RunPredCal),
	entry("fleet", RunFleet),
	entry("accelsweep", RunAccelSweep),
	entry("slosweep", RunSLOSweep),
}

// Names lists the experiments Run accepts, in canonical order.
var Names = func() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.name
	}
	return names
}()

// Run executes one named experiment, writes its rendered result to w, and
// returns the result; WriteCSV exports its raw series when it has a CSV
// form.
func Run(name string, o Options, w io.Writer) (fmt.Stringer, error) {
	for _, e := range registry {
		if e.name != name {
			continue
		}
		res, err := e.run(o)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", name, err)
		}
		_, err = fmt.Fprintln(w, res.String())
		return res, err
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q", name)
}

// RunAll executes every experiment, fanning them across o.Workers goroutines
// while writing rendered results to w in the canonical Names order. Each
// experiment seeds its own RNG streams from Options, so the output is
// byte-for-byte identical for every worker count (modulo the host wall-clock
// timings fig15a and calibration report).
func RunAll(o Options, w io.Writer) error {
	bufs := make([]*bytes.Buffer, len(Names))
	runErr := parallel.ForEach(o.workers(), len(Names), func(i int) error {
		var buf bytes.Buffer
		if _, err := Run(Names[i], o, &buf); err != nil {
			return err
		}
		bufs[i] = &buf
		return nil
	})
	// Flush every result that completed before the lowest-indexed failure,
	// matching the serial semantics of stopping at the failing experiment.
	for _, buf := range bufs {
		if buf == nil {
			break
		}
		if _, err := w.Write(buf.Bytes()); err != nil {
			return err
		}
	}
	return runErr
}
