package gc

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/subtle"
	"encoding/hex"
	"math/rand"
	"testing"
)

// ctrStream is crypto/cipher's AES-CTR keystream under key with a zero IV:
// the reference XORKeyStream is held to.
func ctrStream(key Label, n int) []byte {
	c, err := aes.NewCipher(key[:])
	if err != nil {
		panic(err)
	}
	out := make([]byte, n)
	cipher.NewCTR(c, make([]byte, aes.BlockSize)).XORKeyStream(out, out)
	return out
}

// TestExpandKeyMatchesCryptoAES holds the assembly key expansion and the
// eight-schedule pass to AES-128: FIPS-197's worked example, and for runs
// of random keys, the fixed key's among them, a block encrypted by
// encrypt8 under each lane's own schedule equal to crypto/aes's.
func TestExpandKeyMatchesCryptoAES(t *testing.T) {
	if !hasKernel {
		t.Skip("no assembly kernel on this build or CPU: crypto/aes expands every key")
	}
	var fips Label
	hex.Decode(fips[:], []byte("2b7e151628aed2a6abf7158809cf4f3c"))
	var xk [HashLanes][176]byte
	expandKeys(&fips, 1, &xk[0])
	if got := hex.EncodeToString(xk[0][160:]); got != "d014f9a8c9ee2589e13f0cc8b6630ca6" {
		t.Fatalf("FIPS-197 A.1: last round key %s, want d014f9a8c9ee2589e13f0cc8b6630ca6", got)
	}
	rng := rand.New(rand.NewSource(46))
	keys := []Label{fixedKey, {}, {0: 0xff, 15: 0xff}}
	for range 64 {
		var k Label
		rng.Read(k[:])
		keys = append(keys, k)
	}
	// Runs of every length up to nine, so that four side by side, every
	// tail and a second pass of eight are expanded.
	for n := 1; n <= 9; n++ {
		for first := 0; first+n <= len(keys); first += n {
			run := keys[first : first+n]
			xks := make([][176]byte, n)
			expandKeys(&run[0], n, &xks[0])
			for g := 0; g < n; g += HashLanes {
				var lanes, in [HashLanes]block
				for i := range lanes {
					xk[i] = xks[min(g+i, n-1)]
					var b Label
					rng.Read(b[:])
					lanes[i] = blockAt(b[:])
				}
				in = lanes
				encrypt8(&xk, &lanes)
				for i := range min(HashLanes, n-g) {
					key := run[g+i]
					if !bytes.Equal(xk[i][:16], key[:]) {
						t.Fatalf("key %x: round key 0 is %x", key, xk[i][:16])
					}
					var want Label
					c, _ := aes.NewCipher(key[:])
					src := in[i].label()
					c.Encrypt(want[:], src[:])
					if got := lanes[i].label(); got != want {
						t.Fatalf("key %x (run of %d): %x under the expanded schedule, crypto/aes says %x", key, n, got, want)
					}
				}
			}
		}
	}
}

// TestKeyStreamMatchesCTR holds the OT extension's keystream face to
// crypto/aes: the keystream of a key, read from any offset in any split
// into batches, in place or not, is crypto/cipher's CTR under the key itself
// from a zero IV.
func TestKeyStreamMatchesCTR(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	keys := make([]Label, 37)
	for i := range keys {
		rng.Read(keys[i][:])
	}

	// Random batches from a random start, each over the first c columns:
	// every batch goes on where the last one stopped, as both extension
	// parties do, and column i must read key i's CTR keystream.
	const total = 3000
	want := make([][]byte, len(keys))
	for i, key := range keys {
		want[i] = ctrStream(key, total)
	}
	for range 20 {
		for pos := rng.Intn(300); pos < total; {
			n, c := min(total-pos, rng.Intn(200)), 1+rng.Intn(len(keys))
			src := make([]byte, c*n)
			rng.Read(src)
			dst := make([]byte, c*n)
			XORKeyStream(dst, src, keys[:c], uint64(pos))
			in := append([]byte(nil), src...)
			if XORKeyStream(in, in, keys[:c], uint64(pos)); !bytes.Equal(in, dst) {
				t.Fatalf("%d columns at offset %d: the keystream XORed in place differs", c, pos)
			}
			subtle.XORBytes(dst, dst, src)
			for i := range c {
				if !bytes.Equal(dst[i*n:(i+1)*n], want[i][pos:pos+n]) {
					t.Fatalf("column %d of %d, %d bytes from offset %d: keystream differs from crypto/cipher's CTR", i, c, n, pos)
				}
			}
			pos += n
		}
	}
}

// FuzzKeyStream feeds XORKeyStream arbitrary keys, column counts,
// offsets and splits: every column must read crypto/cipher's CTR keystream
// under its key whatever the cut, and a second pass in place must give the
// input back.
func FuzzKeyStream(f *testing.F) {
	f.Add([]byte("0123456789abcdef"), uint8(128), uint16(0), uint16(132), uint8(7))
	f.Add([]byte{1}, uint8(1), uint16(15), uint16(1), uint8(1))
	f.Add([]byte("deepsecure"), uint8(11), uint16(129), uint16(504), uint8(200))
	f.Fuzz(func(t *testing.T, keyBytes []byte, cols uint8, off, n uint16, cut uint8) {
		keys := make([]Label, 1+int(cols)%130)
		for i := range keys {
			copy(keys[i][:], keyBytes)
			keys[i][15] ^= byte(i)
		}
		start, total := int(off)%512, int(n)%600
		split := min(int(cut), total)
		got := make([]byte, len(keys)*total)
		head, tail := make([]byte, len(keys)*split), make([]byte, len(keys)*(total-split))
		XORKeyStream(head, head, keys, uint64(start))
		XORKeyStream(tail, tail, keys, uint64(start+split))
		for i, key := range keys {
			col := got[i*total : (i+1)*total]
			copy(col, head[i*split:])
			copy(col[split:], tail[i*(total-split):])
			if want := ctrStream(key, start+total)[start:]; !bytes.Equal(col, want) {
				t.Fatalf("key %x, %d bytes from %d cut at %d: keystream differs from crypto/cipher's CTR", key, total, start, split)
			}
		}
		XORKeyStream(head, head, keys, uint64(start))
		if !bytes.Equal(head, make([]byte, len(head))) {
			t.Fatal("the keystream XORed twice in place does not cancel")
		}
	})
}
