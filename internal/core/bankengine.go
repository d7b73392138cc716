package core

import (
	"fmt"

	"deepsecure/internal/circuit"
	"deepsecure/internal/gc"
	"deepsecure/internal/gc/bank"
)

// bankSource is the banked (garble-ahead) table source: when the
// session's bank holds pre-garbled executions, the online walk does no
// garbling at all — input steps select labels by XOR from the banked
// zero-labels, and level steps copy the banked table bytes into the
// engine's chunk buffer, sample s of a batch taken from execution s. The
// evaluator cannot tell the difference: at B=1, for the same rng state, a
// banked sub-stream is byte- and frame-identical to live garbling (the
// bank's fill walk draws randomness in the live source's order; pinned by
// TestBankStreamConformance). At B>1 each sample keeps its own
// execution's delta and labels, exactly as gc.BatchGarbler would have
// drawn them, only the draw order differs from the live source (so the
// batch conformance is at label level, not transcript level).
type bankSource struct {
	exs []*bank.Execution
	rs  []gc.Label // exs' deltas

	ins  int // input steps opened so far
	outs int // output wires handed out so far
	runs int // level runs opened so far
	off  int // byte offset of the next level inside each execution's current run
}

func newBankSource(exs []*bank.Execution) *bankSource {
	b := &bankSource{exs: exs, rs: make([]gc.Label, len(exs))}
	for s, ex := range exs {
		b.rs[s] = ex.R
	}
	return b
}

func (b *bankSource) consts(dst []byte) ([]byte, error) {
	for _, ex := range b.exs {
		dst = append(dst, ex.ConstFalse[:]...)
	}
	for _, ex := range b.exs {
		dst = append(dst, ex.ConstTrue[:]...)
	}
	return dst, nil
}

func (b *bankSource) deltas() []gc.Label { return b.rs }

func (b *bankSource) inputs(*circuit.Step) error {
	b.ins++
	return nil
}

func (b *bankSource) zero(i, s int) (gc.Label, error) { return b.exs[s].InputZero[b.ins-1][i], nil }

func (b *bankSource) run(st *circuit.Step) error {
	for s, ex := range b.exs {
		if got := len(ex.Tables[b.runs]); got != st.TableBytes {
			return fmt.Errorf("core: banked run %d holds %d table bytes, schedule wants %d", s, got, st.TableBytes)
		}
	}
	b.runs++
	b.off = 0
	return nil
}

// level interleaves the B banked runs into the batch stream: gate rank i,
// sample s lands at (i*B+s)*TableSize — the copy is the whole online
// table cost of a bank hit.
func (b *bankSource) level(lv *circuit.Level, dst []byte) error {
	width := lv.ANDs * gc.TableSize
	stride := len(b.exs) * gc.TableSize
	for s, ex := range b.exs {
		src := ex.Tables[b.runs-1][b.off : b.off+width]
		for i := 0; i < lv.ANDs; i++ {
			copy(dst[i*stride+s*gc.TableSize:], src[i*gc.TableSize:(i+1)*gc.TableSize])
		}
	}
	b.off += width
	return nil
}

func (b *bankSource) outputs(st *circuit.Step, dst []gc.Label) ([]gc.Label, error) {
	for i := range st.Wires {
		for _, ex := range b.exs {
			dst = append(dst, ex.OutZero[b.outs+i])
		}
	}
	b.outs += len(st.Wires)
	return dst, nil
}
