package phy

// CRC polynomials from 3GPP TS 38.212 §5.1 (normal representation, MSB
// first, implicit leading 1).
const (
	// CRC24APoly is gCRC24A(D) = D^24+D^23+D^18+D^17+D^14+D^11+D^10+D^7+D^6+D^5+D^4+D^3+D+1.
	CRC24APoly uint32 = 0x864CFB
	// CRC24BPoly is gCRC24B(D) = D^24+D^23+D^6+D^5+D+1.
	CRC24BPoly uint32 = 0x800063
	// CRC16Poly is gCRC16(D) = D^16+D^12+D^5+1 (CCITT).
	CRC16Poly uint32 = 0x1021
)

// CRC computes cyclic redundancy checks over bit slices. Bits are processed
// MSB-first in transmission order, matching the 38.212 convention of
// appending parity bits after the payload.
type CRC struct {
	poly uint32
	bits uint
}

// NewCRC24A returns the transport-block CRC used on TBs > 3824 bits.
func NewCRC24A() *CRC { return &CRC{poly: CRC24APoly, bits: 24} }

// NewCRC24B returns the per-codeblock CRC used after segmentation.
func NewCRC24B() *CRC { return &CRC{poly: CRC24BPoly, bits: 24} }

// NewCRC16 returns the CRC used on small transport blocks.
func NewCRC16() *CRC { return &CRC{poly: CRC16Poly, bits: 16} }

// Bits returns the parity length in bits.
func (c *CRC) Bits() int { return int(c.bits) }

// Compute returns the CRC parity bits (MSB first) for the given payload
// bits. Each payload element must be 0 or 1.
func (c *CRC) Compute(payload []byte) []byte {
	reg := uint32(0)
	mask := (uint32(1) << c.bits) - 1
	for _, b := range payload {
		in := uint32(b & 1)
		fb := ((reg >> (c.bits - 1)) & 1) ^ in
		reg = (reg << 1) & mask
		if fb == 1 {
			reg ^= c.poly & mask
		}
	}
	out := make([]byte, c.bits)
	for i := uint(0); i < c.bits; i++ {
		out[i] = byte((reg >> (c.bits - 1 - i)) & 1)
	}
	return out
}

// Attach returns payload with its CRC parity appended.
func (c *CRC) Attach(payload []byte) []byte {
	out := make([]byte, 0, len(payload)+int(c.bits))
	out = append(out, payload...)
	return append(out, c.Compute(payload)...)
}

// Check verifies that data (payload ++ parity) has a valid CRC and returns
// the payload. ok is false on mismatch or if data is shorter than the CRC.
func (c *CRC) Check(data []byte) (payload []byte, ok bool) {
	n := len(data) - int(c.bits)
	if n < 0 {
		return nil, false
	}
	payload = data[:n]
	want := c.Compute(payload)
	for i, w := range want {
		if data[n+i]&1 != w {
			return payload, false
		}
	}
	return payload, true
}
