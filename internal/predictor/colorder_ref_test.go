package predictor

import (
	"cmp"
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"concordia/internal/ran"
	"concordia/internal/rng"
)

// pairSortOrder is newGrower's column order as it was before the radix
// sort: (value, index) pairs sorted with slices.SortFunc, by cmp.Compare on
// the value, then by index. TestColumnOrderMatchesSortFunc and
// FuzzColumnOrder hold radixOrder to it.
func pairSortOrder(col []float64) []int {
	type keyed struct {
		v float64
		j int
	}
	pairs := make([]keyed, len(col))
	for j, v := range col {
		pairs[j] = keyed{v, j}
	}
	slices.SortFunc(pairs, func(a, b keyed) int {
		if c := cmp.Compare(a.v, b.v); c != 0 {
			return c
		}
		return cmp.Compare(a.j, b.j)
	})
	idx := make([]int, len(col))
	for i, p := range pairs {
		idx[i] = p.j
	}
	return idx
}

// checkColumnOrder requires radixOrder to list col as pairSortOrder does,
// in one of the two buffers it is given, and to hand back the other.
func checkColumnOrder(t *testing.T, name string, col []float64) {
	t.Helper()
	a, b := make([]int, len(col)), make([]int, len(col))
	got, spare := radixOrder(col, a, b)
	want := pairSortOrder(col)
	if i := firstDiff(got, want); i >= 0 {
		t.Fatalf("%s (n=%d): position %d lists sample %d (%v), sort order sample %d (%v)",
			name, len(col), i, got[i], col[got[i]], want[i], col[want[i]])
	}
	if len(col) > 0 && !(&got[0] == &a[0] && &spare[0] == &b[0] || &got[0] == &b[0] && &spare[0] == &a[0]) {
		t.Fatalf("%s: radixOrder did not return its two buffers", name)
	}
}

// firstDiff returns the first index where got and want differ, or -1.
func firstDiff(got, want []int) int {
	if len(got) != len(want) {
		return min(len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return i
		}
	}
	return -1
}

var (
	negNaN       = math.Float64frombits(0xfff8000000000001)
	signalingNaN = math.Float64frombits(0x7ff0000000000001)
	negZero      = math.Copysign(0, -1)
	inf          = math.Inf(1)
)

func TestColumnOrderMatchesSortFunc(t *testing.T) {
	const subnormal = 5e-324
	type column struct {
		name string
		col  []float64
	}
	cases := []column{
		{"empty", nil},
		{"one", []float64{3}},
		{"one NaN", []float64{math.NaN()}},
		{"two descending", []float64{2, 1}},
		{"two equal", []float64{1, 1}},
		{"+0 then -0", []float64{0, negZero}},
		{"-0 then +0", []float64{negZero, 0}},
		{"NaN of either sign", []float64{3, math.NaN(), -1, negNaN, 0, signalingNaN, -inf, negNaN}},
		{"-0 next to +0", []float64{0, negZero, 0, negZero, 1, -1, negZero, -subnormal, subnormal}},
		{"infinities", []float64{inf, -inf, 0, inf, -inf, math.MaxFloat64, -math.MaxFloat64, math.NaN()}},
		{"subnormals", []float64{subnormal, -subnormal, 0, negZero, 3 * subnormal, 2.2250738585072009e-308,
			-2.2250738585072009e-308, math.SmallestNonzeroFloat64, 2.2250738585072014e-308, 3 * subnormal}},
	}
	equal := make([]float64, 100)
	ascending := make([]float64, 1000)
	descending := make([]float64, 1000)
	for i := range equal {
		equal[i] = 7.5
	}
	for i := range ascending {
		ascending[i] = float64(i) - 500
		descending[i] = 500 - float64(i)
	}
	// Columns whose keys differ in every byte, and one with many ties.
	r := rng.New(3)
	normal := make([]float64, 2000)
	bits := make([]float64, 2000)
	ties := make([]float64, 2000)
	for i := range normal {
		normal[i] = r.Normal(0, 1e3)
		bits[i] = math.Float64frombits(r.Uint64())
		ties[i] = 0.1 * float64(r.Intn(7)-3)
	}
	cases = append(cases, column{"all equal", equal}, column{"ascending", ascending},
		column{"descending", descending}, column{"normal", normal}, column{"random bits", bits}, column{"ties", ties})
	for _, c := range cases {
		checkColumnOrder(t, c.name, c.col)
	}

	// A profiled kind's columns, every feature, through newGrower.
	samples := profileCells(ran.Cells20MHz(2), 300, 42)[ran.TaskLDPCDecode]
	feats := make([]ran.Feature, ran.NumFeatures)
	for f := range feats {
		feats[f] = ran.Feature(f)
	}
	g := newGrower(samples, feats, TreeConfig{})
	for k, f := range feats {
		if i := firstDiff(g.sorted[k], pairSortOrder(g.cols[k])); i >= 0 {
			t.Fatalf("LDPC decode %v (n=%d): grower's order differs from the sort order at position %d", f, len(samples), i)
		}
	}
	if cap(g.scratch) != len(samples) {
		t.Fatalf("grower scratch holds %d entries for %d samples", cap(g.scratch), len(samples))
	}
}

// fuzzColumn decodes a column of at most 1024 values. A control byte with
// its top bit set picks a value from a small palette of edge cases (so ties,
// signed zeros and NaNs are common); otherwise the next 8 bytes are any
// float64's bits.
func fuzzColumn(data []byte) []float64 {
	palette := [...]float64{math.NaN(), negNaN, signalingNaN, 0, negZero, inf, -inf, 1, -1, 5e-324, -5e-324, 0.5}
	var out []float64
	for len(data) > 0 && len(out) < 1024 {
		c := data[0]
		data = data[1:]
		if c&0x80 != 0 || len(data) < 8 {
			out = append(out, palette[int(c&0x7f)%len(palette)])
			continue
		}
		out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(data)))
		data = data[8:]
	}
	return out
}

// FuzzColumnOrder requires radixOrder to list a fuzzed column as the
// (value, index) pair sort does.
func FuzzColumnOrder(f *testing.F) {
	r := rng.New(5)
	var mixed []byte
	for i := 0; i < 200; i++ {
		if r.Intn(3) == 0 {
			mixed = append(mixed, 0x80|byte(r.Intn(12)))
			continue
		}
		mixed = append(mixed, 0)
		mixed = binary.LittleEndian.AppendUint64(mixed, math.Float64bits(r.Normal(0, 10)))
	}
	f.Add(mixed)
	f.Add([]byte{0x80, 0x83, 0x84, 0x83, 0x81, 0x80})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkColumnOrder(t, "fuzzed", fuzzColumn(data))
	})
}
