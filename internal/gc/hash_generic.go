//go:build !amd64 || purego

package gc

import "deepsecure/internal/circuit"

// Without the assembly kernels, span runs the Go level kernel, HN loops
// the scalar crypto/aes hash and the keystream faces run on crypto/aes
// (byte-identical to the amd64 kernels by construction — both compute
// AES_fixed(k) ⊕ k per hashed key and AES_K(n) per keystream block — and
// pinned by the conformance tests, which CI runs under the purego tag on
// every push).
// hasKernel is false, so nothing calls the stand-ins below.
const hasKernel = false

var hashLanesWide func(lanes *[HashLanes]block)
var garbleFull, garbleHalf, evalFull, evalHalf asmANDs
var freeGates func(labels *block, gates *circuit.Gate, n, b, slot int)
var expandKeys func(keys *Label, n int, xk *[176]byte)
var encrypt8 func(xk *[HashLanes][176]byte, lanes *[HashLanes]block)
