//go:build !amd64 || purego

package gc

import "deepsecure/internal/circuit"

// Generic fallback of the multi-lane hashing core: no wide kernel, so
// Hasher.hash loops the scalar crypto/aes path over the filled
// lanes (byte-identical to the amd64 kernel by construction — both
// compute AES_fixed(k) ⊕ k per lane — and pinned by the hash conformance
// tests, which CI runs under the purego tag on every push).

func wideAvailable() bool { return false }

// hashLanesWide is never reached on this build: Hasher.wide is latched
// false when wideAvailable is, so Hasher.hash always takes the scalar
// loop.
func hashLanesWide(lanes *[HashLanes]block) {
	panic("gc: wide hash kernel unavailable on this build")
}

// The assembly level kernel is absent too, so span always runs the Go
// kernel and never calls these.
const hasKernel = false

var garbleFull, garbleHalf, evalFull, evalHalf asmANDs
var freeGates func(labels *block, gates *circuit.Gate, n, b, slot int)
