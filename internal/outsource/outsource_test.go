package outsource

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSplitCombineRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(raw []byte) bool {
		bits := make([]bool, len(raw)*3%97+1)
		for i := range bits {
			bits[i] = rng.Intn(2) == 1
		}
		s, tt, err := Split(bits, rng)
		if err != nil {
			return false
		}
		if len(s) != len(bits) || len(tt) != len(bits) {
			return false
		}
		// The circuit's free XOR layer is what recombines the shares.
		for i := range bits {
			if (s[i] != tt[i]) != bits[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestShareIsUniformlyIndependent(t *testing.T) {
	// Proposition 3.2: each share alone is a one-time pad. Statistical
	// smoke test: for a fixed input, the share bits should be ~50/50 over
	// many splits.
	rng := rand.New(rand.NewSource(2))
	bits := make([]bool, 64)
	for i := range bits {
		bits[i] = true // worst case: all-ones input
	}
	ones := 0
	const trials = 200
	for k := 0; k < trials; k++ {
		s, _, err := Split(bits, rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range s {
			if b {
				ones++
			}
		}
	}
	total := trials * len(bits)
	frac := float64(ones) / float64(total)
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("share bias: %f ones fraction", frac)
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	check := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		bits := make([]bool, int(n)+1)
		for i := range bits {
			bits[i] = rng.Intn(2) == 1
		}
		back, err := UnpackBits(PackBits(bits), len(bits))
		if err != nil {
			return false
		}
		for i := range bits {
			if back[i] != bits[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestUnpackShortBuffer(t *testing.T) {
	if _, err := UnpackBits([]byte{0xff}, 9); err == nil {
		t.Error("short buffer accepted")
	}
	if _, err := UnpackBits([]byte{0xff, 0x01, 0x00}, 9); err == nil {
		t.Error("surplus byte silently dropped")
	}
}
