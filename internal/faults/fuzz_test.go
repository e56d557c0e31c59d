package faults

import (
	"math"
	"reflect"
	"testing"
)

// rates returns c's per-class rates, the fields Config.String renders.
func rates(c Config) [numClasses]float64 {
	return [numClasses]float64{
		c.LaneFailure, c.StuckOffload, c.Overrun, c.BurstPerSec,
		c.StormPerSec, c.FronthaulLate, c.FronthaulDrop, c.DeviceResetPerSec,
	}
}

// FuzzParse hardens the -faults spec parser: it either rejects a spec or
// returns a config whose every field is finite and non-negative, and a
// config with a live class round-trips its rates through String.
func FuzzParse(f *testing.F) {
	for _, spec := range []string{
		"", "all", "stuck=0.2,timeout-us=1200,retries=3",
		"overrun=0.5,factor=NaN", "retries=NaN", "storm-cores=1e300",
		"timeout-us=1e300",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		c, err := Parse(spec)
		if err != nil {
			return
		}
		v := reflect.ValueOf(c)
		for i := 0; i < v.NumField(); i++ {
			name, fv := v.Type().Field(i).Name, v.Field(i)
			switch fv.Kind() {
			case reflect.Float64:
				if x := fv.Float(); math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
					t.Fatalf("Parse(%q): %s = %v", spec, name, x)
				}
			case reflect.Int, reflect.Int64:
				if fv.Int() < 0 {
					t.Fatalf("Parse(%q): %s = %d", spec, name, fv.Int())
				}
			default:
				t.Fatalf("Parse(%q): field %s of kind %v is unchecked", spec, name, fv.Kind())
			}
		}
		if !c.Enabled() {
			return
		}
		back, err := Parse(c.String())
		if err != nil {
			t.Fatalf("Parse(%q) rejected String() of Parse(%q): %v", c.String(), spec, err)
		}
		if rates(back) != rates(c) {
			t.Fatalf("rates of %q changed through String(): %v -> %v", spec, rates(c), rates(back))
		}
	})
}
