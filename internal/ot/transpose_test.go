package ot

import (
	"math/rand"
	"slices"
	"testing"
)

// transposeBitLoop is the bit-at-a-time transpose transposeToRows replaced:
// the reference the word-wise one must equal byte for byte.
func transposeBitLoop(cols [][]byte, m int) [][16]byte {
	rows := make([][16]byte, m)
	for i := 0; i < k; i++ {
		col := cols[i]
		byteIdx := i / 8
		bitMask := byte(1 << uint(i%8))
		for j := 0; j < m; j++ {
			if col[j/8]&(1<<uint(j%8)) != 0 {
				rows[j][byteIdx] |= bitMask
			}
		}
	}
	return rows
}

// transposed runs transposeToRows over the columns laid end to end, as the
// extension parties hold them, and returns the rows.
func transposed(cols [][]byte, m int) []Msg {
	rows := make([]Msg, m)
	transposeToRows(bytesOf(rows), slices.Concat(cols...), m)
	return rows
}

func checkTranspose(t *testing.T, cols [][]byte, m int) {
	t.Helper()
	got, want := transposed(cols, m), transposeBitLoop(cols, m)
	if len(got) != len(want) {
		t.Fatalf("m = %d: %d rows, want %d", m, len(got), len(want))
	}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("m = %d: row %d = %x, the bit loop says %x", m, j, got[j], want[j])
		}
	}
}

// TestTransposeMatchesBitLoop holds the word-wise transpose to the loop it
// replaced on random columns, ragged tails (whose padding bits are random
// too and must be dropped) included.
func TestTransposeMatchesBitLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, m := range []int{0, 1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 736, 4096, 4099} {
		cols := make([][]byte, k)
		for i := range cols {
			cols[i] = make([]byte, (m+7)/8)
			rng.Read(cols[i])
		}
		checkTranspose(t, cols, m)
	}
}

func FuzzTranspose(f *testing.F) {
	f.Add([]byte{0x80}, uint16(1))
	f.Add([]byte{1, 2, 3, 0xff, 0x55}, uint16(65))
	f.Add([]byte("deepsecure"), uint16(736))
	f.Fuzz(func(t *testing.T, data []byte, m16 uint16) {
		if len(data) == 0 {
			return
		}
		m := int(m16) % 2048
		cols := make([][]byte, k)
		for i := range cols {
			cols[i] = make([]byte, (m+7)/8)
			for b := range cols[i] {
				cols[i][b] = data[(i*31+b*7+int(data[(i+b)%len(data)]))%len(data)]
			}
		}
		checkTranspose(t, cols, m)
	})
}
