package analysis

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"concordia/internal/ran"
)

// fmtFloat matches the telemetry exporters' shortest-round-trip float
// encoding so every CSV in the repo formats numbers identically.
func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func kindName(kind int32) string {
	if kind < 0 || kind >= int32(ran.NumTaskKinds) {
		return "task(" + strconv.Itoa(int(kind)) + ")"
	}
	return ran.TaskKind(kind).String()
}

// WriteCausesCSV exports the per-cause miss counts (cause,count,share) in
// taxonomy order, ending with a total row — the partition invariant is
// visible as total == sum of the rows above it.
func (a *Autopsy) WriteCausesCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("cause,count,share\n")
	total := len(a.Misses)
	for c := Cause(0); c < NumCauses; c++ {
		share := 0.0
		if total > 0 {
			share = float64(a.CauseCounts[c]) / float64(total)
		}
		bw.WriteString(c.String())
		bw.WriteByte(',')
		bw.WriteString(strconv.Itoa(a.CauseCounts[c]))
		bw.WriteByte(',')
		bw.WriteString(fmtFloat(share))
		bw.WriteByte('\n')
	}
	bw.WriteString("total,")
	bw.WriteString(strconv.Itoa(total))
	bw.WriteString(",1\n")
	return bw.Flush()
}

// WriteMissesCSV exports every attributed miss in event order.
func (a *Autopsy) WriteMissesCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("seq,cell,slot,at_us,latency_us,dropped,cause\n")
	for _, m := range a.Misses {
		fmt.Fprintf(bw, "%d,%d,%d,%s,%s,%t,%s\n",
			m.Seq, m.Cell, m.Slot, fmtFloat(m.At.Us()), fmtFloat(m.Latency.Us()),
			m.Dropped, m.Cause)
	}
	return bw.Flush()
}

// WriteCalibrationCSV exports the calibration monitor's per-kind rows.
func (a *Autopsy) WriteCalibrationCSV(w io.Writer) error {
	return WriteCalibrationCSV(w, "", a.Calibration)
}

// WriteCalibrationCSV exports calibration rows, optionally labelled with a
// predictor name column (the predcal experiment writes four predictors into
// one file; a single-trace autopsy leaves the label empty and the column
// out).
func WriteCalibrationCSV(w io.Writer, predictor string, rows []KindCalibration) error {
	bw := bufio.NewWriter(w)
	if predictor == "" {
		bw.WriteString("kind,samples,coverage,target,mean_headroom_us,mean_headroom_frac,drift,windows,tolerance,miscalibrated\n")
	} else {
		bw.WriteString("predictor,kind,samples,coverage,target,mean_headroom_us,mean_headroom_frac,drift,windows,tolerance,miscalibrated\n")
	}
	if err := appendCalibrationCSV(bw, predictor, rows); err != nil {
		return err
	}
	return bw.Flush()
}

func appendCalibrationCSV(bw *bufio.Writer, predictor string, rows []KindCalibration) error {
	for _, c := range rows {
		if predictor != "" {
			bw.WriteString(predictor)
			bw.WriteByte(',')
		}
		fmt.Fprintf(bw, "%s,%d,%s,%s,%s,%s,%s,%d,%s,%t\n",
			kindName(c.Kind), c.Samples,
			fmtFloat(c.Coverage), fmtFloat(c.Target),
			fmtFloat(c.MeanHeadroomUs), fmtFloat(c.MeanHeadroomFrac),
			fmtFloat(c.Drift), c.Windows, fmtFloat(c.Tolerance), c.Miscalibrated)
	}
	return nil
}

// criticalPathString renders a timeline's critical chain as
// "fft(q12.0+e80.5) -> equalization(q0.0+e210.1)" — per step the queueing
// and execution/offload microseconds that the chain contributed.
func (tl *Timeline) criticalPathString() string {
	var sb strings.Builder
	for i, node := range tl.Critical {
		s := tl.CriticalSpan(node)
		if s == nil {
			continue
		}
		if i > 0 {
			sb.WriteString(" -> ")
		}
		sb.WriteString(kindName(s.Kind))
		work := s.Exec
		tag := "e"
		if s.Offloaded {
			work = s.Offload
			tag = "o"
		}
		fmt.Fprintf(&sb, "(q%.1f+%s%.1f", s.Queue.Us(), tag, work.Us())
		if s.Stall > 0 {
			fmt.Fprintf(&sb, "+s%.1f", s.Stall.Us())
		}
		sb.WriteString(")")
	}
	return sb.String()
}

// WriteReport renders the markdown autopsy: run summary, the miss-cause
// partition, the worst misses with their critical paths, the aggregate
// critical-path decomposition of missed DAGs, and the calibration table.
func (a *Autopsy) WriteReport(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# Autopsy\n\n")
	fmt.Fprintf(bw, "## Run summary\n\n")
	fmt.Fprintf(bw, "- events analysed: %d\n", a.Events)
	fmt.Fprintf(bw, "- DAGs seen: %d (completed %d, dropped %d)\n", a.DAGsSeen, a.DAGsCompleted, a.DAGsDropped)
	fmt.Fprintf(bw, "- deadline misses: %d\n", len(a.Misses))
	fmt.Fprintf(bw, "- pool cores: %d, deadline: %.1f us\n\n", a.Opts.PoolCores, a.Opts.Deadline.Us())

	fmt.Fprintf(bw, "## Miss-cause attribution\n\n")
	if len(a.Misses) == 0 {
		fmt.Fprintf(bw, "No deadline misses in this trace.\n\n")
	} else {
		fmt.Fprintf(bw, "| cause | count | share |\n|---|---:|---:|\n")
		for c := Cause(0); c < NumCauses; c++ {
			if a.CauseCounts[c] == 0 {
				continue
			}
			fmt.Fprintf(bw, "| %s | %d | %.1f%% |\n",
				c, a.CauseCounts[c], 100*float64(a.CauseCounts[c])/float64(len(a.Misses)))
		}
		verdict := "holds"
		if !a.PartitionHolds() {
			verdict = "VIOLATED"
		}
		fmt.Fprintf(bw, "\nPartition invariant %s: causes sum to %d of %d misses.\n\n",
			verdict, a.sumCauses(), len(a.Misses))

		fmt.Fprintf(bw, "### Worst misses\n\n")
		worst := a.worstMisses(10)
		fmt.Fprintf(bw, "| seq | cell | slot | latency us | cause | critical path |\n|---:|---:|---:|---:|---|---|\n")
		for _, m := range worst {
			cp := ""
			if tl := a.timelineBySeq(m.Seq); tl != nil {
				cp = tl.criticalPathString()
			}
			fmt.Fprintf(bw, "| %d | %d | %d | %.1f | %s | %s |\n",
				m.Seq, m.Cell, m.Slot, m.Latency.Us(), m.Cause, cp)
		}
		bw.WriteByte('\n')

		fmt.Fprintf(bw, "### Critical-path decomposition (missed DAGs, mean us)\n\n")
		var fr, qu, ex, of, st, bl float64
		n := 0
		for i := range a.Timelines {
			tl := &a.Timelines[i]
			if !tl.Missed || tl.Truncated {
				continue
			}
			fr += tl.Fronthaul.Us()
			qu += tl.Queue.Us()
			ex += tl.Exec.Us()
			of += tl.Offload.Us()
			st += tl.Stall.Us()
			bl += tl.Blocked.Us()
			n++
		}
		if n > 0 {
			fn := float64(n)
			fmt.Fprintf(bw, "| fronthaul | queue | exec | offload | stall | blocked |\n|---:|---:|---:|---:|---:|---:|\n")
			fmt.Fprintf(bw, "| %.1f | %.1f | %.1f | %.1f | %.1f | %.1f |\n\n",
				fr/fn, qu/fn, ex/fn, of/fn, st/fn, bl/fn)
		} else {
			fmt.Fprintf(bw, "No reconstructable missed DAGs.\n\n")
		}
	}

	fmt.Fprintf(bw, "## Predictor calibration\n\n")
	if len(a.Calibration) == 0 {
		fmt.Fprintf(bw, "No predict samples in this trace.\n")
	} else {
		fmt.Fprintf(bw, "| kind | samples | coverage | target | headroom us | drift | verdict |\n|---|---:|---:|---:|---:|---:|---|\n")
		for _, c := range a.Calibration {
			verdict := "ok"
			if c.Miscalibrated {
				verdict = "MISCALIBRATED"
			}
			fmt.Fprintf(bw, "| %s | %d | %.5f | %.5f | %.1f | %.4f | %s |\n",
				kindName(c.Kind), c.Samples, c.Coverage, c.Target, c.MeanHeadroomUs, c.Drift, verdict)
		}
	}
	return bw.Flush()
}

func (a *Autopsy) sumCauses() int {
	sum := 0
	for _, n := range a.CauseCounts {
		sum += n
	}
	return sum
}

// worstMisses returns up to n misses by descending latency (ties by
// sequence, so the order is deterministic).
func (a *Autopsy) worstMisses(n int) []Miss {
	out := append([]Miss(nil), a.Misses...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Latency != out[j].Latency {
			return out[i].Latency > out[j].Latency
		}
		return out[i].Seq < out[j].Seq
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

func (a *Autopsy) timelineBySeq(seq int64) *Timeline {
	lo, hi := 0, len(a.Timelines)
	for lo < hi {
		mid := (lo + hi) / 2
		if a.Timelines[mid].Seq < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(a.Timelines) && a.Timelines[lo].Seq == seq {
		return &a.Timelines[lo]
	}
	return nil
}
