package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: concordia/internal/pool
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkPoolSecond-8   	       1	 95012345 ns/op	 1234567 B/op	    8901 allocs/op
BenchmarkNilTelemetryEmit 	  100000	         1.798 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	concordia/internal/pool	0.5s
pkg: concordia/internal/phy
BenchmarkLDPCDecode-8   	      10	  1000000 ns/op	  64.00 MB/s
PASS
ok  	concordia/internal/phy	0.1s
`

func TestParseSample(t *testing.T) {
	var echo bytes.Buffer
	tr, err := parse(strings.NewReader(sample), &echo)
	if err != nil {
		t.Fatal(err)
	}
	if echo.String() != sample {
		t.Error("echo does not match input")
	}
	if tr.SchemaVersion != 1 || tr.GoOS != "linux" || tr.GoArch != "amd64" || !strings.Contains(tr.CPU, "Xeon") {
		t.Errorf("header: %+v", tr)
	}
	if len(tr.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(tr.Benchmarks))
	}
	b := tr.Benchmarks[0]
	if b.Package != "concordia/internal/pool" || b.Name != "BenchmarkPoolSecond-8" ||
		b.Iterations != 1 || b.NsPerOp != 95012345 {
		t.Errorf("row 0: %+v", b)
	}
	if b.BytesPerOp == nil || *b.BytesPerOp != 1234567 || b.AllocsPerOp == nil || *b.AllocsPerOp != 8901 {
		t.Errorf("row 0 memstats: %+v", b)
	}
	zero := tr.Benchmarks[1]
	if zero.AllocsPerOp == nil || *zero.AllocsPerOp != 0 || zero.NsPerOp != 1.798 {
		t.Errorf("zero-alloc row: %+v", zero)
	}
	mb := tr.Benchmarks[2]
	if mb.Package != "concordia/internal/phy" || mb.MBPerS == nil || *mb.MBPerS != 64 || mb.BytesPerOp != nil {
		t.Errorf("MB/s row: %+v", mb)
	}

	// The document must round-trip as valid JSON with the documented keys.
	buf, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	if _, ok := doc["benchmarks"]; !ok {
		t.Errorf("missing benchmarks key: %s", buf)
	}
}

func TestParseRejectsFailure(t *testing.T) {
	in := "BenchmarkX-8 1 5 ns/op\nFAIL\nexit status 1\n"
	if _, err := parse(strings.NewReader(in), nil); err == nil {
		t.Error("FAIL stream accepted")
	}
}

func fp(v float64) *float64 { return &v }

func trWith(benches ...Benchmark) *Trajectory {
	return &Trajectory{SchemaVersion: 1, Benchmarks: benches}
}

func TestDiffPassesWithinTolerance(t *testing.T) {
	oldTr := trWith(
		Benchmark{Package: "p", Name: "BenchmarkA-8", NsPerOp: 100, AllocsPerOp: fp(1000)},
		Benchmark{Package: "p", Name: "BenchmarkZero-8", NsPerOp: 5, AllocsPerOp: fp(0)},
	)
	newTr := trWith(
		// +10% exactly is within tolerance (the gate is strictly greater).
		Benchmark{Package: "p", Name: "BenchmarkA-8", NsPerOp: 150, AllocsPerOp: fp(1100)},
		Benchmark{Package: "p", Name: "BenchmarkZero-8", NsPerOp: 6, AllocsPerOp: fp(0)},
	)
	var buf bytes.Buffer
	if reg := diff(oldTr, newTr, &buf); len(reg) != 0 {
		t.Errorf("regressions: %v\n%s", reg, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "ns/op 100 -> 150 (+50.0%)") {
		t.Errorf("missing ns/op delta:\n%s", out)
	}
	if !strings.Contains(out, "allocs/op 1000 -> 1100 (+10.0%)") {
		t.Errorf("missing allocs/op delta:\n%s", out)
	}
}

func TestDiffFlagsAllocRegression(t *testing.T) {
	oldTr := trWith(Benchmark{Package: "p", Name: "BenchmarkA-8", NsPerOp: 100, AllocsPerOp: fp(1000)})
	newTr := trWith(Benchmark{Package: "p", Name: "BenchmarkA-8", NsPerOp: 90, AllocsPerOp: fp(1101)})
	var buf bytes.Buffer
	reg := diff(oldTr, newTr, &buf)
	if len(reg) != 1 || reg[0] != "p BenchmarkA-8" {
		t.Errorf("regressions: %v", reg)
	}
	if !strings.Contains(buf.String(), "REGRESSION") {
		t.Errorf("missing REGRESSION marker:\n%s", buf.String())
	}
}

func TestDiffZeroAllocMustStayZero(t *testing.T) {
	// 10% of zero is zero: a formerly allocation-free benchmark that now
	// allocates at all is a regression.
	oldTr := trWith(Benchmark{Package: "p", Name: "BenchmarkHot-8", NsPerOp: 5, AllocsPerOp: fp(0)})
	newTr := trWith(Benchmark{Package: "p", Name: "BenchmarkHot-8", NsPerOp: 5, AllocsPerOp: fp(1)})
	if reg := diff(oldTr, newTr, io.Discard); len(reg) != 1 {
		t.Errorf("regressions: %v", reg)
	}
}

func TestDiffIgnoresUnmatchedAndMissingMemstats(t *testing.T) {
	oldTr := trWith(
		Benchmark{Package: "p", Name: "BenchmarkGone-8", NsPerOp: 1, AllocsPerOp: fp(9)},
		Benchmark{Package: "p", Name: "BenchmarkNoMem-8", NsPerOp: 2},
	)
	newTr := trWith(
		Benchmark{Package: "p", Name: "BenchmarkNoMem-8", NsPerOp: 3},
		Benchmark{Package: "p", Name: "BenchmarkNew-8", NsPerOp: 4, AllocsPerOp: fp(99)},
	)
	var buf bytes.Buffer
	if reg := diff(oldTr, newTr, &buf); len(reg) != 0 {
		t.Errorf("regressions: %v", reg)
	}
	out := buf.String()
	if !strings.Contains(out, "- p BenchmarkGone-8: only in old") ||
		!strings.Contains(out, "+ p BenchmarkNew-8: only in new") {
		t.Errorf("missing only-in markers:\n%s", out)
	}
}

func TestRunDiffExitCodes(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, tr *Trajectory) string {
		buf, err := json.Marshal(tr)
		if err != nil {
			t.Fatal(err)
		}
		p := dir + "/" + name
		if err := os.WriteFile(p, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	oldP := write("old.json", trWith(Benchmark{Package: "p", Name: "B-8", NsPerOp: 1, AllocsPerOp: fp(10)}))
	okP := write("ok.json", trWith(Benchmark{Package: "p", Name: "B-8", NsPerOp: 1, AllocsPerOp: fp(5)}))
	badP := write("bad.json", trWith(Benchmark{Package: "p", Name: "B-8", NsPerOp: 1, AllocsPerOp: fp(100)}))
	if code := runDiff(oldP, okP, io.Discard); code != 0 {
		t.Errorf("improvement exited %d", code)
	}
	if code := runDiff(oldP, badP, io.Discard); code != 1 {
		t.Errorf("regression exited %d", code)
	}
	if code := runDiff(dir+"/missing.json", okP, io.Discard); code != 1 {
		t.Errorf("missing file exited %d", code)
	}
}

func TestParseSkipsNonResultBenchmarkLines(t *testing.T) {
	// Status lines like "BenchmarkFoo   " (no fields yet) and malformed rows
	// must be skipped, not fatal.
	in := "BenchmarkFoo\nBenchmarkBar-8 notanint 5 ns/op\nBenchmarkOk-8 2 7 ns/op\nPASS\n"
	tr, err := parse(strings.NewReader(in), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Benchmarks) != 1 || tr.Benchmarks[0].Name != "BenchmarkOk-8" {
		t.Errorf("benchmarks: %+v", tr.Benchmarks)
	}
}

func TestDiffSaysHowManyItCompared(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, tr *Trajectory) string {
		buf, err := json.Marshal(tr)
		if err != nil {
			t.Fatal(err)
		}
		p := dir + "/" + name
		if err := os.WriteFile(p, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	lastLine := func(out string) string {
		lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
		return lines[len(lines)-1]
	}
	// Recorded on one CPU (no suffix) and on two (-2): the same benchmarks,
	// no name in common.
	oneCPU := write("one.json", trWith(
		Benchmark{Package: "p", Name: "BenchmarkA", NsPerOp: 1, AllocsPerOp: fp(10)},
		Benchmark{Package: "p", Name: "BenchmarkB/small", NsPerOp: 1, AllocsPerOp: fp(10)},
	))
	twoCPU := write("two.json", trWith(
		Benchmark{Package: "p", Name: "BenchmarkA-2", NsPerOp: 1, AllocsPerOp: fp(10)},
		Benchmark{Package: "p", Name: "BenchmarkB/small-2", NsPerOp: 1, AllocsPerOp: fp(10)},
		Benchmark{Package: "p", Name: "BenchmarkC-2", NsPerOp: 1, AllocsPerOp: fp(10)},
	))
	other := write("other.json", trWith(Benchmark{Package: "q", Name: "BenchmarkZ-2", NsPerOp: 1}))
	for _, c := range []struct {
		oldP, newP, want string
	}{
		{twoCPU, twoCPU, "compared 3 of 3 benchmarks"},
		{oneCPU, twoCPU, "compared 0 of 3 benchmarks: 2 match once the -cpu suffix is dropped " +
			"(old BenchmarkA, new BenchmarkA-2), so the two runs had different GOMAXPROCS"},
		{oneCPU, other, "compared 0 of 1 benchmarks: no name matches, with or without its -cpu suffix"},
	} {
		var buf bytes.Buffer
		// Comparing nothing is reported, not fatal: the exit status is the
		// allocation gate's alone.
		if code := runDiff(c.oldP, c.newP, &buf); code != 0 {
			t.Errorf("%s vs %s exited %d", c.oldP, c.newP, code)
		}
		if got := lastLine(buf.String()); got != c.want {
			t.Errorf("%s vs %s: last line %q, want %q", c.oldP, c.newP, got, c.want)
		}
	}
}
