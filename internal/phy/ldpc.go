// Package phy holds the physical-layer code the simulator calls: an
// LDPC-family channel code (an accumulator-based quasi-cyclic construction
// with normalized min-sum decoding) and an AWGN channel, which the
// calibration experiment times to check the cost model's shape, and the QAM
// modulation orders and codeblock segmentation the RAN model sizes
// transport blocks with.
//
// The decoder operates on real bits and real baseband samples; the
// simulator's cost model is calibrated against the genuine codeblock-count
// and SNR scaling it exhibits. The 38.212 base graphs are replaced with a
// seeded construction of the same shape — a substitution documented in
// DESIGN.md that preserves the runtime structure the paper's scheduler
// depends on.
package phy

import (
	"fmt"
	"math"
	"sync"

	"concordia/internal/rng"
)

// LDPCCode is a systematic irregular repeat-accumulate (IRA) LDPC code. The
// parity-check matrix is H = [A | D], where A is a sparse seeded binary
// matrix over the K information bits (column weight ≈ 3, the regime 38.212's
// base graphs live in) and D is the dual-diagonal accumulator over the M
// parity bits. This structure permits O(E) recursive encoding — the same
// property the 3GPP base graphs are designed for — while remaining a genuine
// LDPC code decodable with belief propagation.
//
// This is the documented substitution for the standardized BG1/BG2 tables:
// it preserves the code-rate range, the sparse Tanner-graph structure, and
// the iteration-count-versus-SNR runtime behaviour that Concordia's WCET
// model must predict.
type LDPCCode struct {
	K int // information bits per codeblock
	M int // parity bits per codeblock

	// The Tanner graph below is immutable after construction and therefore
	// shared freely across concurrent decoders.
	//
	// checkVars[r] lists the information-bit columns participating in check
	// row r (the row support of A).
	checkVars [][]int
	// edges[r] lists every variable index (information and parity) adjacent
	// to check r in the full Tanner graph, including accumulator edges.
	edges [][]int

	// scratch pools per-worker message/posterior buffers: Decode borrows one
	// set per call, so concurrent Decode calls on the same code are safe and
	// steady-state decoding stays allocation-free.
	scratch sync.Pool
}

// ldpcScratch is the mutable working state of one belief-propagation run:
// everything Decode writes lives here, keeping LDPCCode itself read-only
// during decoding.
type ldpcScratch struct {
	checkMsg  [][]float64
	vmsg      [][]float64
	posterior []float64
	hard      []byte
}

func (c *LDPCCode) newScratch() *ldpcScratch {
	s := &ldpcScratch{
		checkMsg:  make([][]float64, c.M),
		vmsg:      make([][]float64, c.M),
		posterior: make([]float64, c.N()),
		hard:      make([]byte, c.N()),
	}
	for r := 0; r < c.M; r++ {
		s.checkMsg[r] = make([]float64, len(c.edges[r]))
		s.vmsg[r] = make([]float64, len(c.edges[r]))
	}
	return s
}

// MaxLDPCIterations is the decoder iteration cap, matching the bounded
// iterative decoding FlexRAN uses.
const MaxLDPCIterations = 20

// NewLDPCCode constructs a code with K information bits and M parity bits
// (rate K/(K+M)) using a deterministic seed. K and M must be positive and
// M >= 4 so every check row can receive distinct sockets.
func NewLDPCCode(k, m int, seed uint64) (*LDPCCode, error) {
	if k <= 0 || m < 4 {
		return nil, fmt.Errorf("phy: invalid LDPC dimensions K=%d M=%d", k, m)
	}
	c := &LDPCCode{
		K:         k,
		M:         m,
		checkVars: make([][]int, m),
	}
	r := rng.New(seed)
	// Column weight 3 (or fewer for very small M): each information bit
	// lands in 3 distinct check rows, spread by random placement. One
	// reusable []bool scratch marks the rows taken by the current column
	// (cleared via the picked list, so construction stays O(K·weight)
	// without a fresh map per column).
	weight := 3
	if m < weight {
		weight = m
	}
	seen := make([]bool, m)
	picked := make([]int, 0, weight)
	for col := 0; col < k; col++ {
		picked = picked[:0]
		for len(picked) < weight {
			row := r.Intn(m)
			if seen[row] {
				continue
			}
			seen[row] = true
			picked = append(picked, row)
			c.checkVars[row] = append(c.checkVars[row], col)
		}
		for _, row := range picked {
			seen[row] = false
		}
	}
	// Precompute the full Tanner adjacency: check r connects its info
	// columns, parity r, and parity r-1 (accumulator).
	c.edges = make([][]int, m)
	for row := 0; row < m; row++ {
		es := make([]int, 0, len(c.checkVars[row])+2)
		es = append(es, c.checkVars[row]...)
		es = append(es, k+row)
		if row > 0 {
			es = append(es, k+row-1)
		}
		c.edges[row] = es
	}
	c.scratch.New = func() any { return c.newScratch() }
	return c, nil
}

// N returns the codeword length K+M.
func (c *LDPCCode) N() int { return c.K + c.M }

// Rate returns the code rate K/N.
func (c *LDPCCode) Rate() float64 { return float64(c.K) / float64(c.N()) }

// Encode maps K information bits to an N-bit systematic codeword
// [info | parity]. The accumulator makes parity bit r satisfy
// p_r = p_{r-1} ⊕ (A·u)_r.
func (c *LDPCCode) Encode(info []byte) ([]byte, error) {
	if len(info) != c.K {
		return nil, fmt.Errorf("phy: LDPC encode wants %d bits, got %d", c.K, len(info))
	}
	out := make([]byte, c.N())
	copy(out, info)
	parity := out[c.K:]
	var prev byte
	for r := 0; r < c.M; r++ {
		s := prev
		for _, col := range c.checkVars[r] {
			s ^= info[col] & 1
		}
		parity[r] = s
		prev = s
	}
	return out, nil
}

// CheckSyndrome reports whether the hard-decision word satisfies all parity
// checks.
func (c *LDPCCode) CheckSyndrome(word []byte) bool {
	if len(word) != c.N() {
		return false
	}
	parity := word[c.K:]
	for r := 0; r < c.M; r++ {
		s := parity[r]
		if r > 0 {
			s ^= parity[r-1]
		}
		for _, col := range c.checkVars[r] {
			s ^= word[col] & 1
		}
		if s&1 != 0 {
			return false
		}
	}
	return true
}

// DecodeResult reports the outcome of an LDPC decoding attempt.
type DecodeResult struct {
	Info       []byte // hard-decision information bits
	Iterations int    // BP iterations executed (1..MaxLDPCIterations)
	Converged  bool   // syndrome satisfied before the iteration cap
}

// Decode runs normalized min-sum belief propagation on channel LLRs
// (positive LLR ⇒ bit 0 more likely, the standard convention). It stops
// early when the syndrome check passes; the iteration count is the quantity
// whose SNR dependence the paper's WCET predictor must capture.
//
// Decode borrows per-call working state from an internal pool while reading
// only the immutable Tanner graph, so concurrent Decode calls on a single
// LDPCCode value are safe. The result is a pure function of the LLRs: the
// goroutine that performs the decode never changes the bits or iteration
// count.
func (c *LDPCCode) Decode(llr []float64) (*DecodeResult, error) {
	res := new(DecodeResult)
	if err := c.DecodeInto(res, llr); err != nil {
		return nil, err
	}
	return res, nil
}

// DecodeInto is Decode with a caller-owned result: res.Info's capacity is
// reused across calls, so steady-state decoding of same-size codeblocks
// allocates nothing (DESIGN.md §5f). Concurrent DecodeInto calls on one code
// are safe as long as each goroutine owns its res.
func (c *LDPCCode) DecodeInto(res *DecodeResult, llr []float64) error {
	n := c.N()
	if len(llr) != n {
		return fmt.Errorf("phy: LDPC decode wants %d LLRs, got %d", n, len(llr))
	}
	const alpha = 0.8 // min-sum normalization factor

	sc := c.scratch.Get().(*ldpcScratch)
	defer c.scratch.Put(sc)
	for r := range sc.checkMsg {
		for i := range sc.checkMsg[r] {
			sc.checkMsg[r][i] = 0
		}
	}
	posterior, hard := sc.posterior, sc.hard

	for iter := 1; iter <= MaxLDPCIterations; iter++ {
		// Flooding schedule: refresh posteriors from channel LLRs plus all
		// current check-to-variable messages.
		copy(posterior, llr)
		for r := 0; r < c.M; r++ {
			for i, v := range c.edges[r] {
				posterior[v] += sc.checkMsg[r][i]
			}
		}
		// Check update: normalized min-sum over variable-to-check messages
		// (posterior minus this check's own previous contribution).
		for r := 0; r < c.M; r++ {
			es := c.edges[r]
			vmsg := sc.vmsg[r]
			var sign float64 = 1
			min1, min2 := math.Inf(1), math.Inf(1)
			min1Idx := -1
			for i, v := range es {
				m := posterior[v] - sc.checkMsg[r][i]
				vmsg[i] = m
				a := math.Abs(m)
				if m < 0 {
					sign = -sign
				}
				if a < min1 {
					min2 = min1
					min1 = a
					min1Idx = i
				} else if a < min2 {
					min2 = a
				}
			}
			for i := range es {
				mag := min1
				if i == min1Idx {
					mag = min2
				}
				s := sign
				if vmsg[i] < 0 {
					s = -s
				}
				sc.checkMsg[r][i] = alpha * s * mag
			}
		}
		// Posterior + hard decision + syndrome.
		copy(posterior, llr)
		for r := 0; r < c.M; r++ {
			for i, v := range c.edges[r] {
				posterior[v] += sc.checkMsg[r][i]
			}
		}
		for v := 0; v < n; v++ {
			if posterior[v] < 0 {
				hard[v] = 1
			} else {
				hard[v] = 0
			}
		}
		if c.CheckSyndrome(hard) {
			res.Info = append(res.Info[:0], hard[:c.K]...)
			res.Iterations = iter
			res.Converged = true
			return nil
		}
	}
	res.Info = append(res.Info[:0], hard[:c.K]...)
	res.Iterations = MaxLDPCIterations
	res.Converged = false
	return nil
}

// MaxCodeblockBits mirrors the 38.212 base-graph-1 limit of 8448 information
// bits per LDPC codeblock.
const MaxCodeblockBits = 8448
