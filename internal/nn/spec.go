package nn

import (
	"encoding/json"
	"fmt"

	"deepsecure/internal/act"
	"deepsecure/internal/fixed"
)

// LayerSpec is the public description of one layer: everything needed to
// regenerate the netlist, and nothing private. Weight VALUES never appear
// here — only the architecture and (when pruning is enabled) the sparsity
// map, which the paper argues is public knowledge (§3.7-ii).
type LayerSpec struct {
	Type string `json:"type"` // dense | conv | maxpool | meanpool | act

	Out    int      `json:"out,omitempty"`    // dense width
	OutC   int      `json:"outc,omitempty"`   // conv maps
	K      int      `json:"k,omitempty"`      // conv/pool kernel
	Stride int      `json:"stride,omitempty"` // conv/pool stride
	Pad    int      `json:"pad,omitempty"`    // conv padding
	Act    act.Kind `json:"act,omitempty"`    // activation kind
	Mask   []bool   `json:"mask,omitempty"`   // sparsity map (nil = dense)
}

// Spec is the public model description the server shares with clients so
// both parties can deterministically generate the same netlist (Fig. 2's
// "publicly known DL architecture" plus the sparsity map).
type Spec struct {
	In     Shape        `json:"in"`
	Format fixed.Format `json:"format"`
	Layers []LayerSpec  `json:"layers"`
}

// Spec extracts the public description of the network.
func (n *Network) Spec(f fixed.Format) *Spec {
	s := &Spec{In: n.In, Format: f}
	for _, l := range n.Layers {
		var ls LayerSpec
		switch v := l.(type) {
		case *Dense:
			ls = LayerSpec{Type: "dense", Out: v.OutN}
			if v.ActiveWeights() != len(v.W) {
				ls.Mask = append([]bool(nil), v.Mask...)
			}
		case *Conv2D:
			ls = LayerSpec{Type: "conv", OutC: v.OutC, K: v.K, Stride: v.Stride, Pad: v.Pad}
			if v.ActiveWeights() != len(v.W) {
				ls.Mask = append([]bool(nil), v.Mask...)
			}
		case *MaxPool2D:
			ls = LayerSpec{Type: "maxpool", K: v.K, Stride: v.Stride}
		case *MeanPool2D:
			ls = LayerSpec{Type: "meanpool", K: v.K}
		case *Activation:
			ls = LayerSpec{Type: "act", Act: v.Kind}
		default:
			ls = LayerSpec{Type: "unknown"}
		}
		s.Layers = append(s.Layers, ls)
	}
	return s
}

// Build reconstructs a weight-less network with the spec's architecture
// and sparsity maps — what the client (who never sees weights) uses to
// generate its copy of the netlist. The spec is the peer's: Build checks
// the format, every layer parameter, every size (see MaxWeights) and that
// every activation has a realization at the format before allocating, and
// answers a hostile one with an error.
func (s *Spec) Build() (*Network, error) {
	if err := s.Format.Validate(); err != nil {
		return nil, fmt.Errorf("nn: spec: %w", err)
	}
	var layers []Layer
	for i, ls := range s.Layers {
		switch ls.Type {
		case "dense":
			d := NewDense(ls.Out)
			layers = append(layers, d)
		case "conv":
			layers = append(layers, NewConv2D(ls.OutC, ls.K, ls.Stride, ls.Pad))
		case "maxpool":
			layers = append(layers, NewMaxPool2D(ls.K, ls.Stride))
		case "meanpool":
			layers = append(layers, NewMeanPool2D(ls.K))
		case "act":
			a := NewActivation(ls.Act)
			// A valid format can still be one this realization cannot run
			// at (CORDIC datapath too wide, LUT past its cap).
			if _, err := a.Impl(s.Format); err != nil {
				return nil, fmt.Errorf("nn: spec layer %d: %w", i, err)
			}
			layers = append(layers, a)
		default:
			return nil, fmt.Errorf("nn: spec layer %d has unknown type %q", i, ls.Type)
		}
	}
	net, err := NewNetwork(s.In, layers...)
	if err != nil {
		return nil, err
	}
	// Install masks after Bind sized the weight arrays.
	li := 0
	for _, l := range net.Layers {
		p, ok := l.(ParamLayer)
		if !ok {
			li++
			continue
		}
		ls := s.Layers[li]
		li++
		if ls.Mask == nil {
			continue
		}
		w, mask := p.Weights()
		if len(ls.Mask) != len(mask) {
			return nil, fmt.Errorf("nn: spec mask length %d, layer has %d weights", len(ls.Mask), len(w))
		}
		copy(mask, ls.Mask)
	}
	return net, nil
}

// MaxSpecBytes bounds a marshalled Spec: a network has at most MaxWeights
// mask entries, each at most 6 bytes of JSON ("false,"), and 64 KiB holds
// the shape, the format and every layer's other fields. A server refuses to
// share a larger spec, and a client reads no larger architecture frame.
const MaxSpecBytes = 6*MaxWeights + 64<<10

// Marshal encodes the spec as JSON.
func (s *Spec) Marshal() ([]byte, error) { return json.Marshal(s) }

// UnmarshalSpec decodes a JSON spec.
func UnmarshalSpec(data []byte) (*Spec, error) {
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("nn: spec decode: %w", err)
	}
	return &s, nil
}

// WeightBits serializes the private model parameters in the canonical
// protocol order: layer by layer, active weights in flat-index order, then
// biases — each quantized to the format, a weight emitted as its Booth
// digits (fixed.BoothDigits: the multiplier's input), a bias as its bits
// LSB-first (an addend). This is the exact order netgen declares
// evaluator-input wires, so these bits are the server's OT choice vector.
func WeightBits(n *Network, f fixed.Format) []bool {
	var bits []bool
	for _, p := range n.ParamLayers() {
		w, mask := p.Weights()
		for i, v := range w {
			if !mask[i] {
				continue
			}
			bits = append(bits, fixed.BoothDigits(f.FromFloatSat(v).Raw(), f.Bits())...)
		}
		for _, v := range p.Biases() {
			bits = f.FromFloatSat(v).AppendBits(bits)
		}
	}
	return bits
}

// WeightBitCount returns len(WeightBits(n, f)) without materializing it.
func WeightBitCount(n *Network, f fixed.Format) int {
	count := 0
	for _, p := range n.ParamLayers() {
		count += ParamBits(p, f)
	}
	return count
}

// ParamBits is the layer's share of WeightBits.
func ParamBits(p ParamLayer, f fixed.Format) int {
	return p.ActiveWeights()*fixed.BoothBits(f.Bits()) + len(p.Biases())*f.Bits()
}
