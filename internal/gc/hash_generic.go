//go:build !amd64 || purego

package gc

import "deepsecure/internal/circuit"

// Without the assembly kernels, span runs the Go level kernel and HN loops
// the scalar crypto/aes hash (byte-identical to the amd64 kernels by
// construction — both compute AES_fixed(k) ⊕ k per key — and pinned by the
// conformance tests, which CI runs under the purego tag on every push).
// hasKernel is false, so nothing calls the stand-ins below.
const hasKernel = false

var hashLanesWide func(lanes *[HashLanes]block)
var garbleFull, garbleHalf, evalFull, evalHalf asmANDs
var freeGates func(labels *block, gates *circuit.Gate, n, b, slot int)
