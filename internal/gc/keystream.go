package gc

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"math/bits"
)

// XORKeyStream sets dst = src ⊕ the keystreams of keys from byte offset
// off. src is len(keys) columns of equal length, and column i runs on the
// AES-128-CTR keystream under keys[i]: keystream block n is AES_key(n), n a
// big-endian 128-bit counter from a zero IV, as crypto/cipher's CTR draws
// it, so a stream read in pieces at the offsets they start at equals one
// read whole. On the kernel the keys are expanded four side by side and
// the columns run eight at a time, one block of each per pass (encrypt8):
// a column costs the blocks it covers, where eight blocks of one key at a
// time would round a 132-byte column's 9 up to 16. dst must be at least as
// long as src and may alias it exactly.
func XORKeyStream(dst, src []byte, keys []Label, off uint64) {
	if len(dst) < len(src) || len(keys) == 0 && len(src) > 0 || len(keys) > 0 && len(src)%len(keys) != 0 {
		panic(fmt.Sprintf("gc: keystream of %d bytes into %d under %d keys", len(src), len(dst), len(keys)))
	}
	if len(src) == 0 {
		return
	}
	n := len(src) / len(keys)
	if !hasKernel {
		for i, key := range keys {
			xorStreamAES(dst[i*n:(i+1)*n], src[i*n:(i+1)*n], newCipher(key), off)
		}
		return
	}
	var xk [HashLanes][176]byte
	var lanes [HashLanes]block
	for g := 0; g < len(keys); g += HashLanes {
		group := keys[g:min(g+HashLanes, len(keys))]
		expandKeys(&group[0], len(group), &xk[0])
		for pos := 0; pos < n; {
			ctr, skip := (off+uint64(pos))/LabelSize, int((off+uint64(pos))%LabelSize)
			for i := range lanes {
				lanes[i] = block{hi: bits.ReverseBytes64(ctr)}
			}
			encrypt8(&xk, &lanes)
			w := min(LabelSize-skip, n-pos)
			for i := range group {
				c := (g+i)*n + pos
				if w == LabelSize {
					blockAt(src[c:]).xor(lanes[i]).put(dst[c:])
				} else {
					var ks Label
					lanes[i].put(ks[:])
					subtle.XORBytes(dst[c:c+w], src[c:c+w], ks[skip:])
				}
			}
			pos += w
		}
	}
}

// xorStreamAES is one column of XORKeyStream through crypto/aes.
func xorStreamAES(dst, src []byte, c cipher.Block, off uint64) {
	ctr, skip := off/LabelSize, int(off%LabelSize)
	var in, ks Label
	for len(src) > 0 {
		binary.BigEndian.PutUint64(in[8:], ctr)
		c.Encrypt(ks[:], in[:])
		n := subtle.XORBytes(dst, src, ks[skip:])
		dst, src, ctr, skip = dst[n:], src[n:], ctr+1, 0
	}
}

// newCipher is crypto/aes under a 16-byte key, which cannot fail.
func newCipher(key Label) cipher.Block {
	c, err := aes.NewCipher(key[:])
	if err != nil {
		panic(fmt.Sprintf("gc: AES-128 key setup: %v", err))
	}
	return c
}
