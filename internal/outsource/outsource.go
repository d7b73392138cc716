// Package outsource implements the XOR secret-sharing used by
// DeepSecure's secure-outsourcing mode (paper §3.3): a constrained client
// splits its input x into a random share s and x⊕s, hands one share to a
// proxy (who garbles on the client's behalf) and the other to the main
// server, and the circuit's free initial XOR layer reconstructs x.
// Proposition 3.2: secure as long as the two servers do not collude.
package outsource

import (
	"fmt"
	"io"
)

// Split produces the two XOR shares of the input bits: a uniformly random
// pad s and t = x ⊕ s. Either share alone is independent of x (one-time
// pad).
func Split(bits []bool, rng io.Reader) (s, t []bool, err error) {
	buf := make([]byte, (len(bits)+7)/8)
	if _, err := io.ReadFull(rng, buf); err != nil {
		return nil, nil, fmt.Errorf("outsource: share randomness: %w", err)
	}
	s = make([]bool, len(bits))
	t = make([]bool, len(bits))
	for i, b := range bits {
		s[i] = buf[i/8]&(1<<uint(i%8)) != 0
		t[i] = b != s[i]
	}
	return s, t, nil
}

// PackBits serializes bits LSB-first into bytes for transport.
func PackBits(bits []bool) []byte {
	out := make([]byte, (len(bits)+7)/8)
	for i, b := range bits {
		if b {
			out[i/8] |= 1 << uint(i%8)
		}
	}
	return out
}

// UnpackBits deserializes n bits from data, which must be exactly the bytes
// PackBits makes of n bits: a longer buffer is a sender that meant another
// width, not padding to drop.
func UnpackBits(data []byte, n int) ([]bool, error) {
	if len(data) != (n+7)/8 {
		return nil, fmt.Errorf("outsource: %d bytes do not hold exactly %d bits", len(data), n)
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = data[i/8]&(1<<uint(i%8)) != 0
	}
	return out, nil
}
