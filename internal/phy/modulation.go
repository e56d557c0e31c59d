package phy

import "fmt"

// Modulation identifies a QAM constellation by bits per symbol.
type Modulation int

// Modulation schemes used by NR data channels.
const (
	QPSK   Modulation = 2
	QAM16  Modulation = 4
	QAM64  Modulation = 6
	QAM256 Modulation = 8
)

// String implements fmt.Stringer.
func (m Modulation) String() string {
	switch m {
	case QPSK:
		return "QPSK"
	case QAM16:
		return "16QAM"
	case QAM64:
		return "64QAM"
	case QAM256:
		return "256QAM"
	default:
		return fmt.Sprintf("Modulation(%d)", int(m))
	}
}

// BitsPerSymbol returns the modulation order.
func (m Modulation) BitsPerSymbol() int { return int(m) }

// Valid reports whether m is one of the supported constellations.
func (m Modulation) Valid() bool {
	switch m {
	case QPSK, QAM16, QAM64, QAM256:
		return true
	}
	return false
}
