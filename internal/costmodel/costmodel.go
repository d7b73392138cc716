// Package costmodel implements the paper's GC performance characterization
// (Table 2, Eq. 3/4, §4.3): per-gate computation coefficients, the
// 128-bit-per-ciphertext communication constant (two per non-XOR gate, one
// for a half AND), and the execution-time
// model Texec = Tcomp + Tcomm that regenerates the Table 4/5/6 rows from
// gate counts. Calibrate measures this machine's per-gate costs the same
// way the paper's "set of subroutines" does, on the level kernel sessions
// run.
package costmodel

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"deepsecure/internal/circuit"
	"deepsecure/internal/gc"
)

// Coefficients hold per-gate costs and the channel model.
type Coefficients struct {
	// XORNs / NonXORNs / HalfANDNs: combined garble+evaluate nanoseconds
	// per free gate, full AND and half AND.
	XORNs, NonXORNs, HalfANDNs float64
	// BandwidthMbps models the client↔server channel.
	BandwidthMbps float64
	// Source describes where the numbers came from.
	Source string
}

// Paper returns the paper's coefficients (§4.3): 62 and 164 CPU cycles
// per XOR / non-XOR gate at 3.4 GHz, and the ~824 Mb/s effective channel
// implied by Table 4's benchmark-1 row (791 MB moved in 9.67−1.98 s). A
// half AND, which the paper has not, is charged three of the gate's six
// hashes.
func Paper() Coefficients {
	const ghz = 3.4
	return Coefficients{
		XORNs:         62 / ghz,
		NonXORNs:      164 / ghz,
		HalfANDNs:     164 / ghz / 2,
		BandwidthMbps: 824,
		Source:        "paper §4.3 (i7-2600 @ 3.4 GHz)",
	}
}

// calibrationRounds is how many times Calibrate times each gate class.
const calibrationRounds = 5

// Calibrate measures this machine's per-gate garble+evaluate cost over n
// gates of each class, mirroring §4.3's characterization subroutines. It
// times the kernel sessions run — BatchGarbler.GarbleLevel and
// BatchEvaluator.EvaluateLevel at B = 1 on one worker — over levels of
// independent gates. The classes take turns over calibrationRounds rounds
// and each keeps its fastest, so one preemption cannot decide a
// coefficient.
func Calibrate(n int) (Coefficients, error) {
	if n < 1000 {
		n = 1000
	}
	rng := rand.New(rand.NewSource(424242))
	g, err := gc.NewBatchGarbler(rng, 1)
	if err != nil {
		return Coefficients{}, err
	}
	e, err := gc.NewBatchEvaluator(1)
	if err != nil {
		return Coefficients{}, err
	}
	// Output wires cycle through a bounded window so the label arrays stay
	// cache-resident, like the streaming execution's; a level is one
	// window's worth of gates, so its outputs are distinct.
	const nin, window = 64, 4096
	g.Grow(2 + nin + window)
	e.Grow(2 + nin + window)
	for w := uint32(2); w < 2+nin; w++ {
		if err := g.AssignInput(w); err != nil {
			return Coefficients{}, err
		}
		l, err := g.ActiveLabel(w, 0, rng.Intn(2) == 1)
		if err != nil {
			return Coefficients{}, err
		}
		e.SetLabel(w, 0, l)
	}
	pool := gc.NewPool(1)
	table := make([]byte, window*gc.TableSize)
	var gid uint64
	// Any wire serves as a half AND's B for timing: the kernel reads the
	// permute bit it finds.
	ops := [...]circuit.Op{circuit.XOR, circuit.AND, circuit.HalfAND}
	var gates [len(ops)][]circuit.Gate
	for c, op := range ops {
		gates[c] = make([]circuit.Gate, n)
		for i := range gates[c] {
			gates[c][i] = circuit.Gate{
				Op:  op,
				A:   2 + uint32(rng.Intn(nin)),
				B:   2 + uint32(rng.Intn(nin)),
				Out: 2 + nin + uint32(i%window),
			}
		}
	}
	measure := func(op circuit.Op, gates []circuit.Gate) (float64, error) {
		start := time.Now()
		for lo := 0; lo < n; lo += window {
			ands, frees := gates[lo:min(lo+window, n)], []circuit.Gate(nil)
			if op == circuit.XOR {
				ands, frees = nil, ands
			}
			if err := g.GarbleLevel(ands, frees, gid, table, pool); err != nil {
				return 0, err
			}
			if err := e.EvaluateLevel(ands, frees, gid, table, pool); err != nil {
				return 0, err
			}
			gid += uint64(len(ands))
		}
		return float64(time.Since(start).Nanoseconds()) / float64(n), nil
	}
	best := [len(ops)]float64{math.Inf(1), math.Inf(1), math.Inf(1)}
	for range calibrationRounds {
		for c, op := range ops {
			ns, err := measure(op, gates[c])
			if err != nil {
				return Coefficients{}, err
			}
			best[c] = min(best[c], ns)
		}
	}
	return Coefficients{
		XORNs:         best[0],
		NonXORNs:      best[1],
		HalfANDNs:     best[2],
		BandwidthMbps: 1000,
		Source:        fmt.Sprintf("fastest of %d rounds over %d gates/class", calibrationRounds, n),
	}, nil
}

// Estimate is one Table 4/5-style row.
type Estimate struct {
	XOR, NonXOR int64
	Ciphertexts int64   // 2 per non-XOR gate, 1 per half AND: Eq. 4's unit
	CommMB      float64 // garbled tables only, Eq. 4
	CompS       float64 // Eq. 3 over the whole netlist
	ExecS       float64 // Tcomp + Tcomm
}

// FromStats applies Table 2's model to a netlist's gate counts: Eq. 4 over
// its ciphertexts, Eq. 3 with each gate kind at its own cost.
func FromStats(s circuit.Stats, co Coefficients) Estimate {
	free := s.FreeXOR()
	non := s.NonXOR()
	commBits := float64(s.Ciphertexts()) * float64(gc.SecurityBits) // Eq. 4
	commMB := commBits / 8 / 1e6
	compS := (float64(free)*co.XORNs + float64(non-s.HalfAND)*co.NonXORNs + float64(s.HalfAND)*co.HalfANDNs) / 1e9
	execS := compS + commBits/(co.BandwidthMbps*1e6)
	return Estimate{
		XOR:         free,
		NonXOR:      non,
		Ciphertexts: s.Ciphertexts(),
		CommMB:      commMB,
		CompS:       compS,
		ExecS:       execS,
	}
}

// String renders the estimate as a Table 4 row fragment.
func (e Estimate) String() string {
	return fmt.Sprintf("#XOR=%.2e #non-XOR=%.2e #ciphertexts=%.2e Comm=%.3gMB Comp=%.3gs Exec=%.3gs",
		float64(e.XOR), float64(e.NonXOR), float64(e.Ciphertexts), e.CommMB, e.CompS, e.ExecS)
}

// Throughput reports effective gates/second for each class under the
// coefficients (§4.4 quotes 2.56M non-XOR/s and 5.11M XOR/s).
func Throughput(co Coefficients) (xorPerSec, nonXORPerSec float64) {
	return 1e9 / co.XORNs, 1e9 / co.NonXORNs
}

// DelayDeepSecure returns the client-perceived processing delay for n
// samples under DeepSecure's linear-per-sample model (Fig. 6).
func DelayDeepSecure(n int, perSampleS float64) float64 {
	return float64(n) * perSampleS
}

// DelayCryptoNets returns the delay for n samples under the HE baseline's
// batch model: a constant cost per batch of `slots` samples (Fig. 6's
// step function).
func DelayCryptoNets(n, slots int, perBatchS float64) float64 {
	if n <= 0 {
		return 0
	}
	batches := (n + slots - 1) / slots
	return float64(batches) * perBatchS
}

// Crossover returns the largest client batch size for which DeepSecure's
// delay stays at or below the HE baseline's (the paper's "less than 2600
// samples" break-even, §1/Fig. 6). Returns math.MaxInt32 when DeepSecure
// always wins within the scanned range.
func Crossover(perSampleS, perBatchS float64, slots, scanMax int) int {
	last := 0
	for n := 1; n <= scanMax; n++ {
		if DelayDeepSecure(n, perSampleS) <= DelayCryptoNets(n, slots, perBatchS) {
			last = n
		}
	}
	if last == scanMax {
		return math.MaxInt32
	}
	return last
}
