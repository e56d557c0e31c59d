package phy

import (
	"testing"
	"testing/quick"

	"concordia/internal/rng"
)

func TestCRCRoundTrip(t *testing.T) {
	r := rng.New(1)
	for _, c := range []*CRC{NewCRC24A(), NewCRC24B(), NewCRC16()} {
		for trial := 0; trial < 20; trial++ {
			payload := randomBits(r, 10+r.Intn(500))
			data := c.Attach(payload)
			if len(data) != len(payload)+c.Bits() {
				t.Fatalf("attach length %d", len(data))
			}
			got, ok := c.Check(data)
			if !ok {
				t.Fatal("valid CRC rejected")
			}
			for i := range payload {
				if got[i] != payload[i] {
					t.Fatal("payload corrupted")
				}
			}
		}
	}
}

func TestCRCDetectsSingleBitErrors(t *testing.T) {
	r := rng.New(2)
	c := NewCRC24A()
	payload := randomBits(r, 200)
	data := c.Attach(payload)
	for i := range data {
		data[i] ^= 1
		if _, ok := c.Check(data); ok {
			t.Fatalf("single-bit error at %d undetected", i)
		}
		data[i] ^= 1
	}
}

func TestCRCDetectsBurstErrors(t *testing.T) {
	// A CRC of degree d detects all burst errors of length <= d.
	r := rng.New(3)
	c := NewCRC16()
	payload := randomBits(r, 300)
	data := c.Attach(payload)
	for trial := 0; trial < 100; trial++ {
		burstLen := 2 + r.Intn(15)
		start := r.Intn(len(data) - burstLen)
		corrupted := append([]byte(nil), data...)
		// Flip first and last bit of the burst to guarantee a real burst.
		corrupted[start] ^= 1
		corrupted[start+burstLen-1] ^= 1
		for k := start + 1; k < start+burstLen-1; k++ {
			corrupted[k] ^= byte(r.Intn(2))
		}
		if _, ok := c.Check(corrupted); ok {
			t.Fatalf("burst error (len %d at %d) undetected", burstLen, start)
		}
	}
}

func TestCRCLinearity(t *testing.T) {
	// CRC over GF(2) is linear: crc(a ⊕ b) = crc(a) ⊕ crc(b).
	r := rng.New(4)
	c := NewCRC24B()
	err := quick.Check(func(seed uint32) bool {
		rr := rng.New(uint64(seed))
		n := 64 + rr.Intn(64)
		a := randomBits(r, n)
		b := randomBits(r, n)
		ab := make([]byte, n)
		for i := range ab {
			ab[i] = a[i] ^ b[i]
		}
		ca, cb, cab := c.Compute(a), c.Compute(b), c.Compute(ab)
		for i := range cab {
			if cab[i] != ca[i]^cb[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCRCCheckShortData(t *testing.T) {
	if _, ok := NewCRC24A().Check([]byte{1, 0, 1}); ok {
		t.Fatal("short data accepted")
	}
}

func TestCRCEmptyPayload(t *testing.T) {
	c := NewCRC16()
	data := c.Attach(nil)
	if len(data) != 16 {
		t.Fatalf("CRC of empty payload has %d bits", len(data))
	}
	if _, ok := c.Check(data); !ok {
		t.Fatal("CRC of empty payload rejected")
	}
}

func BenchmarkCRC24A(b *testing.B) {
	r := rng.New(1)
	payload := randomBits(r, 8448)
	c := NewCRC24A()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Compute(payload)
	}
}
