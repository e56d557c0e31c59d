package cli

import (
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"concordia/internal/sim"
	"concordia/internal/slo"
)

// newFlagSet returns a flag set with the shared SLO flags, -scale,
// -training and a -duration declared, reporting parse errors instead of
// exiting. -scale scales at most an hour, as the experiments do.
func newFlagSet() (*flag.FlagSet, *SLO) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	Seconds(fs, "duration", 60, "simulated `seconds`")
	Scale(fs, 0.25, 3600*sim.Second, "duration scale `factor`")
	Training(fs)
	return fs, BindSLO(fs)
}

// Numeric flags refuse, with an error naming the flag, every value that
// would otherwise be silently replaced by a default, kept as NaN or
// overflow its simulated duration, and accept every in-range value.
func TestNumericFlagsRejectOutOfRange(t *testing.T) {
	for _, tc := range []struct {
		flag, value string
		ok          bool
	}{
		{"slo-window", "NaN", false},
		{"slo-window", "Inf", false},
		{"slo-window", "-Inf", false},
		{"slo-window", "-5", false},
		{"slo-window", "1e300", false},
		{"slo-window", "1e-9", false},
		{"slo-window", "1e400", false},
		{"slo-window", "abc", false},
		{"slo-window", "0", true},
		{"slo-window", "5", true},
		{"slo-window", "0.5", true},
		{"slo-window", "1e-6", true},
		{"slo-burn", "NaN", false},
		{"slo-burn", "Inf", false},
		{"slo-burn", "-Inf", false},
		{"slo-burn", "-1", false},
		{"slo-burn", "0", true},
		{"slo-burn", "10", true},
		{"slo-burn", "1e300", true},
		{"duration", "NaN", false},
		{"duration", "Inf", false},
		{"duration", "-Inf", false},
		{"duration", "-1", false},
		{"duration", "0", false},
		{"duration", "1e300", false},
		{"duration", "1e-10", false},
		{"duration", "0.3", true},
		{"duration", "1e-9", true},
		{"duration", "9e9", true},
		{"scale", "NaN", false},
		{"scale", "Inf", false},
		{"scale", "-Inf", false},
		{"scale", "-1", false},
		{"scale", "0", false},
		{"scale", "1e300", false},
		{"scale", "3e6", false},
		{"scale", "1e-5", true},
		{"scale", "0.02", true},
		{"scale", "1", true},
		{"scale", "2e6", true},
		{"training", "-5", false},
		{"training", "-1", false},
		{"training", "1e3", false},
		{"training", "99999999999999999999", false},
		{"training", "0", true},
		{"training", "500", true},
	} {
		fs, _ := newFlagSet()
		err := fs.Parse([]string{"-" + tc.flag, tc.value})
		if tc.ok && err != nil {
			t.Errorf("-%s %s: %v", tc.flag, tc.value, err)
		}
		if !tc.ok && (err == nil || !strings.Contains(err.Error(), "-"+tc.flag)) {
			t.Errorf("-%s %s: got error %v, want one naming the flag", tc.flag, tc.value, err)
		}
	}
}

func TestScaleAndTrainingValues(t *testing.T) {
	for _, tc := range []struct {
		args     []string
		scale    float64
		training int
	}{
		{nil, 0.25, 0},
		{[]string{"-scale", "0.5", "-training", "700"}, 0.5, 700},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		scale := Scale(fs, 0.25, sim.Second, "")
		training := Training(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		if *scale != tc.scale || *training != tc.training {
			t.Errorf("%v: scale %v, training %d; want %v, %d", tc.args, *scale, *training, tc.scale, tc.training)
		}
	}
}

func TestSLOOptions(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want *slo.Options
	}{
		{nil, nil},
		{[]string{"-slo-window", "5", "-slo-burn", "10"}, nil},
		{[]string{"-slo", "s.csv"}, &slo.Options{}},
		{[]string{"-slo-report", "r.md", "-slo-window", "5", "-slo-burn", "10"},
			&slo.Options{Window: 5 * sim.Millisecond, BurnThreshold: 10}},
	} {
		fs, s := newFlagSet()
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		got := s.Options()
		if (got == nil) != (tc.want == nil) ||
			got != nil && (got.Window != tc.want.Window || got.BurnThreshold != tc.want.BurnThreshold) {
			t.Errorf("%v: Options() = %+v, want %+v", tc.args, got, tc.want)
		}
	}
}

func TestSLOWriteOnlyRequestedExports(t *testing.T) {
	dir := t.TempDir()
	fs, s := newFlagSet()
	report := filepath.Join(dir, "r.md")
	if err := fs.Parse([]string{"-slo-report", report}); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(slo.New(*s.Options(), nil)); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "r.md" {
		t.Fatalf("wrote %v, want only r.md", entries)
	}
	if b, err := os.ReadFile(report); err != nil || len(b) == 0 {
		t.Fatalf("report: %d bytes, %v", len(b), err)
	}
}

func TestWriteFileEmptyPathWritesNothing(t *testing.T) {
	called := false
	err := WriteFile("", func(io.Writer) error {
		called = true
		return nil
	})
	if err != nil || called {
		t.Fatalf("WriteFile(\"\") = %v, write called %v", err, called)
	}
}

func TestWriteFileReturnsErrors(t *testing.T) {
	dir := t.TempDir()
	noop := func(io.Writer) error { return nil }
	if err := WriteFile(filepath.Join(dir, "missing", "f"), noop); err == nil {
		t.Error("create in a missing directory succeeded")
	}
	errWrite := errors.New("write failed")
	if err := WriteFile(filepath.Join(dir, "f"), func(io.Writer) error { return errWrite }); !errors.Is(err, errWrite) {
		t.Errorf("write error: got %v, want %v", err, errWrite)
	}
	path := filepath.Join(dir, "g")
	if err := WriteFile(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "x\n")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != "x\n" {
		t.Fatalf("wrote %q, %v", b, err)
	}
}
