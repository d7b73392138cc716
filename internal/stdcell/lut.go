package stdcell

import (
	"fmt"
	"math/bits"

	"deepsecure/internal/circuit"
)

// LUT builds a look-up table circuit: table must have exactly 2^len(index)
// entries, each wrapped to outWidth bits. The construction is a Shannon
// multiplexer tree whose constant leaves fold away in the builder (a mux
// of two equal constants is free; of complementary constants it is the
// select wire or its negation), which is how the paper's synthesis flow
// compresses its Tanh/Sigmoid LUT netlists.
func LUT(b *circuit.Builder, index Word, outWidth int, table []int64) Word {
	if len(table) != 1<<uint(len(index)) {
		panic(fmt.Sprintf("stdcell: LUT table has %d entries, index width %d needs %d",
			len(table), len(index), 1<<uint(len(index))))
	}
	return lutRec(b, index, outWidth, table)
}

func lutRec(b *circuit.Builder, index Word, outWidth int, table []int64) Word {
	if len(index) == 0 {
		return Const(b, outWidth, table[0])
	}
	half := len(table) / 2
	msb := index[len(index)-1]
	lo := lutRec(b, index[:len(index)-1], outWidth, table[:half])
	hi := lutRec(b, index[:len(index)-1], outWidth, table[half:])
	return Mux(b, msb, hi, lo)
}

// ArgMax returns the index (as a ceil(log2(n))-bit word) of the maximum of
// the given signed values, resolving ties toward the lower index. This is
// the paper's Softmax realization (§4.2): Softmax is monotonic, so the
// inference label is the argmax of the pre-activation vector, computed
// with a CMP+MUX chain of n-1 stages.
func ArgMax(b *circuit.Builder, vals []Word) Word {
	idx, _ := ArgMaxVal(b, vals)
	return idx
}

// IndexBits is the width of ArgMax's index word over n values: at least
// one bit, and enough for n-1.
func IndexBits(n int) int { return max(1, bits.Len(uint(n-1))) }

// ArgMaxVal returns both the argmax index word and the maximum value word.
func ArgMaxVal(b *circuit.Builder, vals []Word) (Word, Word) {
	if len(vals) == 0 {
		panic("stdcell: ArgMax of empty slice")
	}
	idxBits := IndexBits(len(vals))
	bestVal := vals[0]
	bestIdx := Const(b, idxBits, 0)
	for i := 1; i < len(vals); i++ {
		sameWidth(vals[i], bestVal)
		gt := GT(b, vals[i], bestVal)
		bestVal = Mux(b, gt, vals[i], bestVal)
		bestIdx = Mux(b, gt, Const(b, idxBits, int64(i)), bestIdx)
	}
	return bestIdx, bestVal
}

// MaxPool returns the maximum over a window of values — the Max-Pooling
// layer primitive (Table 1): k-1 comparator+mux stages for k inputs.
func MaxPool(b *circuit.Builder, window []Word) Word {
	if len(window) == 0 {
		panic("stdcell: MaxPool of empty window")
	}
	acc := window[0]
	for i := 1; i < len(window); i++ {
		acc = Max(b, acc, window[i])
	}
	return acc
}

// MeanPool returns the mean over a window whose size must be a power of
// two: an adder tree followed by a free arithmetic shift (Table 1 Mean
// Pooling). The intermediate sum is computed at extended width to avoid
// overflow, then shifted and truncated back.
func MeanPool(b *circuit.Builder, window []Word) Word {
	k := len(window)
	if k == 0 || k&(k-1) != 0 {
		panic("stdcell: MeanPool window must be a nonzero power of two")
	}
	log := 0
	for 1<<uint(log) < k {
		log++
	}
	n := len(window[0])
	wide := n + log
	acc := SignExtend(b, window[0], wide)
	for i := 1; i < k; i++ {
		sameWidth(window[i], window[0])
		acc = Add(b, acc, SignExtend(b, window[i], wide))
	}
	return ShrArith(b, acc, log)[:n].Clone()
}
