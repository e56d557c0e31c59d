package phy

import "testing"

func TestModulationBasics(t *testing.T) {
	for _, m := range []Modulation{QPSK, QAM16, QAM64, QAM256} {
		if !m.Valid() {
			t.Fatalf("%v invalid", m)
		}
		if m.String() == "" {
			t.Fatalf("%v has no name", m)
		}
	}
	if Modulation(3).Valid() {
		t.Fatal("Modulation(3) should be invalid")
	}
}
