package phy

import (
	"testing"
	"testing/quick"

	"concordia/internal/rng"
)

func TestSegmentSmallTB(t *testing.T) {
	s, err := Segment(1000)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumBlocks != 1 {
		t.Fatalf("small TB split into %d blocks", s.NumBlocks)
	}
	if s.PerBlockCRC {
		t.Fatal("single block should not carry CB CRC")
	}
	if s.BlockBits != 1024 {
		t.Fatalf("block bits %d want 1024 (payload + TB CRC)", s.BlockBits)
	}
}

func TestSegmentLargeTB(t *testing.T) {
	s, err := Segment(50000)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumBlocks < 6 {
		t.Fatalf("50 kb TB split into only %d blocks", s.NumBlocks)
	}
	if !s.PerBlockCRC {
		t.Fatal("multi-block segmentation must use CB CRCs")
	}
	if s.BlockBits > MaxCodeblockBits {
		t.Fatalf("block bits %d exceed LDPC limit", s.BlockBits)
	}
}

func TestSegmentInvalid(t *testing.T) {
	if _, err := Segment(0); err == nil {
		t.Fatal("zero TB accepted")
	}
}

func TestSegmentRoundTripSingleBlock(t *testing.T) {
	r := rng.New(1)
	payload := randomBits(r, 800)
	s, _ := Segment(800)
	blocks, err := s.SegmentBits(payload)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s.Reassemble(blocks)
	if !ok {
		t.Fatal("reassemble rejected valid blocks")
	}
	for i := range payload {
		if got[i] != payload[i] {
			t.Fatal("payload corrupted through segmentation")
		}
	}
}

func TestSegmentRoundTripMultiBlock(t *testing.T) {
	r := rng.New(2)
	for _, size := range []int{9000, 20000, 50000} {
		payload := randomBits(r, size)
		s, _ := Segment(size)
		blocks, err := s.SegmentBits(payload)
		if err != nil {
			t.Fatal(err)
		}
		if len(blocks) != s.NumBlocks {
			t.Fatalf("got %d blocks want %d", len(blocks), s.NumBlocks)
		}
		got, ok := s.Reassemble(blocks)
		if !ok {
			t.Fatalf("reassemble rejected valid %d-bit TB", size)
		}
		for i := range payload {
			if got[i] != payload[i] {
				t.Fatalf("payload corrupted at bit %d (TB %d)", i, size)
			}
		}
	}
}

func TestSegmentDetectsCorruption(t *testing.T) {
	r := rng.New(3)
	payload := randomBits(r, 20000)
	s, _ := Segment(20000)
	blocks, _ := s.SegmentBits(payload)
	blocks[1][7] ^= 1
	if _, ok := s.Reassemble(blocks); ok {
		t.Fatal("corrupted codeblock accepted")
	}
}

func TestSegmentWrongPayloadLength(t *testing.T) {
	s, _ := Segment(1000)
	if _, err := s.SegmentBits(make([]byte, 500)); err == nil {
		t.Fatal("wrong payload length accepted")
	}
	if _, ok := s.Reassemble(nil); ok {
		t.Fatal("wrong block count accepted")
	}
}

func TestRateMatcherPuncture(t *testing.T) {
	rm, err := NewRateMatcher(10, 6)
	if err != nil {
		t.Fatal(err)
	}
	cw := []byte{0, 1, 0, 1, 1, 0, 0, 1, 1, 1}
	out, err := rm.Match(cw)
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if out[i] != cw[i] {
			t.Fatal("puncturing must keep a prefix")
		}
	}
}

func TestRateMatcherRepeat(t *testing.T) {
	rm, _ := NewRateMatcher(4, 10)
	cw := []byte{1, 0, 1, 1}
	out, _ := rm.Match(cw)
	for i := range out {
		if out[i] != cw[i%4] {
			t.Fatal("repetition must wrap circularly")
		}
	}
}

func TestRateDematchChaseCombining(t *testing.T) {
	rm, _ := NewRateMatcher(4, 8)
	llr := []float64{1, 2, 3, 4, 10, 20, 30, 40}
	out, err := rm.Dematch(llr)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{11, 22, 33, 44}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("dematch %v want %v", out, want)
		}
	}
}

func TestRateDematchPuncturedErasures(t *testing.T) {
	rm, _ := NewRateMatcher(6, 4)
	out, _ := rm.Dematch([]float64{1, 1, 1, 1})
	if out[4] != 0 || out[5] != 0 {
		t.Fatal("punctured positions must stay zero")
	}
}

func TestRateMatcherErrors(t *testing.T) {
	if _, err := NewRateMatcher(0, 5); err == nil {
		t.Fatal("zero N accepted")
	}
	rm, _ := NewRateMatcher(4, 8)
	if _, err := rm.Match(make([]byte, 3)); err == nil {
		t.Fatal("wrong codeword length accepted")
	}
	if _, err := rm.Dematch(make([]float64, 3)); err == nil {
		t.Fatal("wrong LLR length accepted")
	}
}

// Property: match followed by dematch of strong LLRs preserves every bit
// that was transmitted at least once.
func TestRateMatchDematchProperty(t *testing.T) {
	r := rng.New(4)
	err := quick.Check(func(a, b uint8) bool {
		n := int(a%32) + 4
		e := int(b%64) + 1
		rm, err := NewRateMatcher(n, e)
		if err != nil {
			return false
		}
		cw := randomBits(r, n)
		tx, err := rm.Match(cw)
		if err != nil {
			return false
		}
		llr := make([]float64, e)
		for i, bit := range tx {
			llr[i] = 5
			if bit == 1 {
				llr[i] = -5
			}
		}
		acc, err := rm.Dematch(llr)
		if err != nil {
			return false
		}
		for i := 0; i < n && i < e; i++ {
			var want byte
			if acc[i] < 0 {
				want = 1
			}
			if want != cw[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}
