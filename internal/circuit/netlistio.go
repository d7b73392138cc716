package circuit

import (
	"bufio"
	"fmt"
	"io"
)

// WriteNetlist serializes a materialized circuit in the repository's plain
// text netlist format. The format plays the role of the synthesized
// netlists that the paper exports from its logic-synthesis flow: it can be
// inspected and diffed.
//
//	deepsecure-netlist v1
//	garbler_inputs <w>...
//	evaluator_inputs <w>...
//	gate XOR|AND|INV <a> <b> <out>
//	...
//	outputs <w>...
//	end
func WriteNetlist(w io.Writer, c *Circuit) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "deepsecure-netlist v1")
	writeWireLine(bw, "garbler_inputs", c.GarblerInputs)
	writeWireLine(bw, "evaluator_inputs", c.EvaluatorInputs)
	for _, g := range c.Gates {
		fmt.Fprintf(bw, "gate %s %d %d %d\n", g.Op, g.A, g.B, g.Out)
	}
	writeWireLine(bw, "outputs", c.Outputs)
	fmt.Fprintln(bw, "end")
	return bw.Flush()
}

func writeWireLine(w io.Writer, name string, ws []uint32) {
	fmt.Fprint(w, name)
	for _, x := range ws {
		fmt.Fprintf(w, " %d", x)
	}
	fmt.Fprintln(w)
}
