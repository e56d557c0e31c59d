package phy

import "errors"

// Segmentation is the codeblock layout of a transport block under the
// 38.212 §5.2.2 procedure: a TB-level CRC is attached, the result is split
// into equal-size codeblocks no larger than MaxCodeblockBits, and each
// codeblock carries a CRC-24B when more than one block results.
type Segmentation struct {
	TBBits      int // transport block payload bits (before CRCs)
	NumBlocks   int // C
	BlockBits   int // K': information bits per codeblock including CB CRC
	PerBlockCRC bool
}

// Segment computes the segmentation for a transport block of tbBits payload
// bits.
func Segment(tbBits int) (*Segmentation, error) {
	if tbBits <= 0 {
		return nil, errors.New("phy: transport block must be positive")
	}
	const tbCRC = 24
	total := tbBits + tbCRC
	c := 1
	perBlock := total
	if total > MaxCodeblockBits {
		const cbCRC = 24
		// C = ceil(B / (Kcb - L)) with Kcb = 8448, L = 24.
		c = (total + MaxCodeblockBits - cbCRC - 1) / (MaxCodeblockBits - cbCRC)
		perBlock = (total + c*cbCRC + c - 1) / c
	}
	return &Segmentation{
		TBBits:      tbBits,
		NumBlocks:   c,
		BlockBits:   perBlock,
		PerBlockCRC: c > 1,
	}, nil
}
