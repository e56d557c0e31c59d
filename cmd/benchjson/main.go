// Command benchjson distils `go test -bench` output into BENCH_pool.json,
// the repo's benchmark-trajectory artifact (schema documented in
// EXPERIMENTS.md). It reads the benchmark stream on stdin, echoes it through
// to stdout so progress stays visible, and writes one JSON document with a
// row per benchmark: iterations, ns/op and — when -benchmem was on — B/op
// and allocs/op.
//
// Usage:
//
//	go test -run '^$' -bench=. -benchmem -benchtime=1x ./... | benchjson -o BENCH_pool.json
//	benchjson -diff old.json new.json
//
// benchjson exits non-zero when the stream contains a test failure or no
// benchmark lines at all, so a broken `make bench` cannot publish an empty
// trajectory.
//
// The -diff mode compares two trajectory documents benchmark by benchmark,
// printing ns/op and allocs/op deltas, and exits non-zero when any
// benchmark's allocs/op regressed by more than 10% — the repo's
// alloc-regression gate (DESIGN.md §5f). Its last line, "compared N of M
// benchmarks", counts the new document's benchmarks that the old one also
// has; names recorded at a different GOMAXPROCS carry a different -cpu
// suffix and match nothing, which that line then says.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Package    string  `json:"package"`
	Name       string  `json:"name"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// BytesPerOp/AllocsPerOp are present only when -benchmem was on.
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	MBPerS      *float64 `json:"mb_per_s,omitempty"`
}

// Trajectory is the BENCH_pool.json document.
type Trajectory struct {
	SchemaVersion int         `json:"schema_version"`
	GoOS          string      `json:"go_os,omitempty"`
	GoArch        string      `json:"go_arch,omitempty"`
	CPU           string      `json:"cpu,omitempty"`
	Benchmarks    []Benchmark `json:"benchmarks"`
}

// parse consumes a `go test -bench` stream, echoing every line to echo (nil
// disables the echo), and returns the trajectory. A FAIL line anywhere makes
// it an error: a broken suite must not publish a trajectory.
func parse(r io.Reader, echo io.Writer) (*Trajectory, error) {
	tr := &Trajectory{SchemaVersion: 1, Benchmarks: []Benchmark{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	pkg := ""
	failed := false
	for sc.Scan() {
		line := sc.Text()
		if echo != nil {
			fmt.Fprintln(echo, line)
		}
		switch {
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg: "))
		case strings.HasPrefix(line, "goos: "):
			tr.GoOS = strings.TrimSpace(strings.TrimPrefix(line, "goos: "))
		case strings.HasPrefix(line, "goarch: "):
			tr.GoArch = strings.TrimSpace(strings.TrimPrefix(line, "goarch: "))
		case strings.HasPrefix(line, "cpu: "):
			tr.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu: "))
		case strings.HasPrefix(line, "FAIL"):
			failed = true
		case strings.HasPrefix(line, "Benchmark"):
			if b, ok := parseBenchLine(line); ok {
				b.Package = pkg
				tr.Benchmarks = append(tr.Benchmarks, b)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if failed {
		return nil, fmt.Errorf("benchmark stream contains a FAIL line")
	}
	return tr, nil
}

// parseBenchLine parses one result line:
//
//	BenchmarkName-8   12   98765 ns/op   2048 B/op   12 allocs/op
//
// Fields after the iteration count come in value/unit pairs; unknown units
// are ignored so future `go test` additions do not break the parser.
func parseBenchLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: fields[0], Iterations: iters}
	seen := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		switch fields[i+1] {
		case "ns/op":
			b.NsPerOp = v
			seen = true
		case "B/op":
			val := v
			b.BytesPerOp = &val
		case "allocs/op":
			val := v
			b.AllocsPerOp = &val
		case "MB/s":
			val := v
			b.MBPerS = &val
		}
	}
	return b, seen
}

// allocRegressionLimit is the fractional allocs/op growth tolerated by
// -diff before it fails: new > old·(1+limit) is a regression. A benchmark
// that was allocation-free must stay allocation-free (10% of zero is zero).
const allocRegressionLimit = 0.10

// benchKey identifies a benchmark across trajectory documents. The name
// includes the -cpu suffix (e.g. "-8"), so runs from differently shaped
// machines compare as disjoint sets rather than silently mismatching.
type benchKey struct {
	pkg, name string
}

// loadTrajectory reads one BENCH_pool.json-format document.
func loadTrajectory(path string) (*Trajectory, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	tr := &Trajectory{}
	if err := json.Unmarshal(buf, tr); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return tr, nil
}

// pctDelta returns the percentage change from old to new. The ok result is
// false when old is zero and the change is therefore unrepresentable as a
// percentage (callers print the raw values instead).
func pctDelta(oldV, newV float64) (pct float64, ok bool) {
	if oldV == 0 {
		return 0, newV == 0
	}
	return (newV - oldV) / oldV * 100, true
}

// cpuBase drops the -cpu suffix that `go test -bench` appends to a name
// when GOMAXPROCS > 1 ("BenchmarkX-8" is "BenchmarkX").
func cpuBase(name string) string {
	digits := strings.TrimRight(name, "0123456789")
	if len(digits) < len(name) && strings.HasSuffix(digits, "-") {
		return digits[:len(digits)-1]
	}
	return name
}

// noMatchCause explains a diff that compared nothing: the usual cause is two
// trajectories recorded at different GOMAXPROCS, whose names differ only in
// their -cpu suffix.
func noMatchCause(oldTr, newTr *Trajectory) string {
	oldByBase := make(map[benchKey]string, len(oldTr.Benchmarks))
	for _, b := range oldTr.Benchmarks {
		oldByBase[benchKey{b.Package, cpuBase(b.Name)}] = b.Name
	}
	n, example := 0, ""
	for _, b := range newTr.Benchmarks {
		if oldName, ok := oldByBase[benchKey{b.Package, cpuBase(b.Name)}]; ok {
			if n == 0 {
				example = fmt.Sprintf("old %s, new %s", oldName, b.Name)
			}
			n++
		}
	}
	if n == 0 {
		return "no name matches, with or without its -cpu suffix"
	}
	return fmt.Sprintf("%d match once the -cpu suffix is dropped (%s), so the two runs had different GOMAXPROCS",
		n, example)
}

// diff compares two trajectories benchmark by benchmark, writing one delta
// line per shared benchmark to w, and returns the benchmarks whose allocs/op
// regressed past allocRegressionLimit. Benchmarks present in only one
// document are reported but never fatal: the suite is allowed to grow and
// shrink; only a shared benchmark getting hungrier trips the gate. The last
// line says how many of the new document's benchmarks were compared and,
// when none were, why.
func diff(oldTr, newTr *Trajectory, w io.Writer) (regressed []string) {
	oldBy := make(map[benchKey]Benchmark, len(oldTr.Benchmarks))
	for _, b := range oldTr.Benchmarks {
		oldBy[benchKey{b.Package, b.Name}] = b
	}
	matched := make(map[benchKey]bool, len(newTr.Benchmarks))
	for _, nb := range newTr.Benchmarks {
		k := benchKey{nb.Package, nb.Name}
		ob, ok := oldBy[k]
		if !ok {
			fmt.Fprintf(w, "+ %s %s: only in new\n", nb.Package, nb.Name)
			continue
		}
		matched[k] = true
		line := fmt.Sprintf("  %s %s: ns/op %.4g -> %.4g", nb.Package, nb.Name, ob.NsPerOp, nb.NsPerOp)
		if pct, ok := pctDelta(ob.NsPerOp, nb.NsPerOp); ok {
			line += fmt.Sprintf(" (%+.1f%%)", pct)
		}
		if ob.AllocsPerOp != nil && nb.AllocsPerOp != nil {
			oa, na := *ob.AllocsPerOp, *nb.AllocsPerOp
			line += fmt.Sprintf(", allocs/op %.6g -> %.6g", oa, na)
			pct, ok := pctDelta(oa, na)
			if ok && oa != 0 {
				line += fmt.Sprintf(" (%+.1f%%)", pct)
			}
			if na > oa*(1+allocRegressionLimit) {
				line += "  REGRESSION"
				regressed = append(regressed, k.pkg+" "+k.name)
			}
		}
		fmt.Fprintln(w, line)
	}
	for _, ob := range oldTr.Benchmarks {
		if k := (benchKey{ob.Package, ob.Name}); !matched[k] {
			fmt.Fprintf(w, "- %s %s: only in old\n", ob.Package, ob.Name)
		}
	}
	fmt.Fprintf(w, "compared %d of %d benchmarks", len(matched), len(newTr.Benchmarks))
	if len(matched) == 0 && len(newTr.Benchmarks) > 0 {
		fmt.Fprint(w, ": "+noMatchCause(oldTr, newTr))
	}
	fmt.Fprintln(w)
	return regressed
}

// runDiff is the -diff entry point; returns the process exit code.
func runDiff(oldPath, newPath string, w io.Writer) int {
	oldTr, err := loadTrajectory(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 1
	}
	newTr, err := loadTrajectory(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 1
	}
	regressed := diff(oldTr, newTr, w)
	if len(regressed) > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: allocs/op regressed >%.0f%% in %d benchmark(s):\n",
			allocRegressionLimit*100, len(regressed))
		for _, name := range regressed {
			fmt.Fprintln(os.Stderr, "  "+name)
		}
		return 1
	}
	return 0
}

func main() {
	out := flag.String("o", "BENCH_pool.json", "output JSON path")
	quiet := flag.Bool("q", false, "do not echo the benchmark stream to stdout")
	diffMode := flag.Bool("diff", false, "compare two trajectory JSON files: -diff old.json new.json")
	flag.Parse()

	if *diffMode {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -diff wants exactly two arguments: old.json new.json")
			os.Exit(2)
		}
		os.Exit(runDiff(flag.Arg(0), flag.Arg(1), os.Stdout))
	}

	var echo io.Writer
	if !*quiet {
		echo = os.Stdout
	}
	tr, err := parse(os.Stdin, echo)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(tr.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines found on stdin")
		os.Exit(1)
	}
	buf, err := json.MarshalIndent(tr, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %s (%d benchmarks)\n", *out, len(tr.Benchmarks))
}
