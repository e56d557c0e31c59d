// Package scratchalias is a fixture for the scratchalias analyzer: codec
// carries *Into/*Append builder methods that hand back a view of the scratch
// buffer passed in, like the ran package's BuildUplinkDAGInto.
package scratchalias

type codec struct {
	scratch []byte
	out     []byte
}

// DecodeInto decodes n bytes into dst's backing array and returns the
// written prefix.
func (c *codec) DecodeInto(dst []byte, n int) []byte {
	if cap(dst) < n {
		dst = make([]byte, n)
	}
	return dst[:n]
}

// TransformInto is the multi-value builder shape (result, error).
func (c *codec) TransformInto(dst, src []byte) ([]byte, error) {
	return append(dst[:0], src...), nil
}

type holder struct {
	kept []byte
}

var retained []byte

// Violations: builder results outliving the scratch buffer they alias.

func storeInPackageVar(c *codec, buf []byte) {
	retained = c.DecodeInto(buf, 8) // want "stored in package-level variable retained"
}

func storeInParamField(c *codec, h *holder, buf []byte) {
	b := c.DecodeInto(buf, 8)
	h.kept = b // want "stored in memory reachable through h"
}

func staleRead(c *codec, buf []byte) byte {
	a := c.DecodeInto(buf, 8)
	b := c.DecodeInto(buf, 16)
	_ = b
	return a[0] // want "read after DecodeInto .* reused scratch buffer buf"
}

// Negatives: the receiver store-back idiom, rebinding before reuse, and
// distinct buffers.

func (c *codec) refresh(n int) int {
	out := c.DecodeInto(c.scratch, n)
	c.scratch = out // possibly-grown buffer goes back to its own home
	c.out = out
	return len(out)
}

func (c *codec) receive(src []byte) (int, error) {
	out, err := c.TransformInto(c.scratch, src)
	if err != nil {
		return 0, err
	}
	c.scratch = out
	return len(out), nil
}

func rebindBeforeReuse(c *codec, buf []byte) byte {
	a := c.DecodeInto(buf, 8)
	x := a[0]
	a = c.DecodeInto(buf, 16) // a now views the new contents on purpose
	return x + a[0]
}

func distinctBuffers(c *codec, buf1, buf2 []byte) byte {
	a := c.DecodeInto(buf1, 8)
	b := c.DecodeInto(buf2, 8)
	return a[0] + b[0]
}

// Suppressed: an annotated retention passes, and the reason is carried into
// the suppression report.
func suppressedRetention(c *codec, buf []byte) {
	retained = c.DecodeInto(buf, 8) //lint:allow scratchalias fixture exercises the suppression path
}
