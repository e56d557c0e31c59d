package phy

import (
	"errors"
	"fmt"
)

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

// SegmentBits applies the segmentation to actual payload bits, returning the
// per-codeblock bit slices (each of length BlockBits, zero-padded at the
// end of the last block).
func (s *Segmentation) SegmentBits(payload []byte) ([][]byte, error) {
	if len(payload) != s.TBBits {
		return nil, fmt.Errorf("phy: payload %d bits, segmentation built for %d", len(payload), s.TBBits)
	}
	withCRC := NewCRC24A().Attach(payload)
	if s.NumBlocks == 1 {
		block := make([]byte, s.BlockBits)
		copy(block, withCRC)
		return [][]byte{block}, nil
	}
	cbCRC := NewCRC24B()
	dataPer := s.BlockBits - cbCRC.Bits()
	blocks := make([][]byte, 0, s.NumBlocks)
	for i := 0; i < s.NumBlocks; i++ {
		chunk := make([]byte, dataPer)
		lo := i * dataPer
		hi := lo + dataPer
		if lo < len(withCRC) {
			if hi > len(withCRC) {
				hi = len(withCRC)
			}
			copy(chunk, withCRC[lo:hi])
		}
		blocks = append(blocks, cbCRC.Attach(chunk))
	}
	return blocks, nil
}

// Reassemble reverses SegmentBits: verifies per-codeblock CRCs (when
// present) and the TB CRC, returning the payload. ok is false if any CRC
// fails.
func (s *Segmentation) Reassemble(blocks [][]byte) (payload []byte, ok bool) {
	if len(blocks) != s.NumBlocks {
		return nil, false
	}
	var joined []byte
	if s.NumBlocks == 1 {
		joined = append([]byte(nil), blocks[0][:s.TBBits+24]...)
	} else {
		cbCRC := NewCRC24B()
		for _, b := range blocks {
			data, good := cbCRC.Check(b)
			if !good {
				return nil, false
			}
			joined = append(joined, data...)
		}
		joined = joined[:s.TBBits+24]
	}
	return NewCRC24A().Check(joined)
}

// RateMatcher implements circular-buffer rate matching (38.212 §5.4.2):
// the encoded codeword is read into a buffer and E output bits are taken
// circularly, puncturing when E < N and repeating when E > N.
type RateMatcher struct {
	N int // mother codeword length
	E int // rate-matched output length
}

// NewRateMatcher validates the dimensions.
func NewRateMatcher(n, e int) (*RateMatcher, error) {
	if n <= 0 || e <= 0 {
		return nil, errors.New("phy: rate matcher dimensions must be positive")
	}
	return &RateMatcher{N: n, E: e}, nil
}

// Match selects E bits from the N-bit codeword circularly.
func (rm *RateMatcher) Match(codeword []byte) ([]byte, error) {
	if len(codeword) != rm.N {
		return nil, fmt.Errorf("phy: rate match wants %d bits, got %d", rm.N, len(codeword))
	}
	out := make([]byte, rm.E)
	for i := 0; i < rm.E; i++ {
		out[i] = codeword[i%rm.N]
	}
	return out, nil
}

// Dematch accumulates E received LLRs back into N mother-code LLR
// positions: repeated transmissions add (chase combining), punctured
// positions stay at zero (erasure).
func (rm *RateMatcher) Dematch(llr []float64) ([]float64, error) {
	if len(llr) != rm.E {
		return nil, fmt.Errorf("phy: rate dematch wants %d LLRs, got %d", rm.E, len(llr))
	}
	out := make([]float64, rm.N)
	for i, v := range llr {
		out[i%rm.N] += v
	}
	return out, nil
}
