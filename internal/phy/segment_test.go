package phy

import "testing"

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
