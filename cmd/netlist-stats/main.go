// netlist-stats inspects the GC netlists this library synthesizes: it
// prints gate statistics for a chosen component or benchmark model, and
// can export a materialized netlist in the text format for inspection.
//
//	netlist-stats -component tanh-cordic
//	netlist-stats -model b3
//	netlist-stats -component mult -export mult.netlist
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"deepsecure/internal/benchmarks"
	"deepsecure/internal/circuit"
	"deepsecure/internal/fixed"
	"deepsecure/internal/netgen"
)

func main() {
	component := flag.String("component", "", "Table 3 component name (add|mult|div|relu|softmax|mvm|tanh-*|sigmoid-*)")
	model := flag.String("model", "", "benchmark model (b1|b2|b3|b4)")
	export := flag.String("export", "", "write the materialized netlist to this file")
	flag.Parse()
	f := fixed.Default

	switch {
	case *component != "":
		var gen func(*circuit.Builder, fixed.Format)
		for _, c := range benchmarks.Table3 {
			if c.Key == *component {
				gen = c.Gen
			}
		}
		if gen == nil {
			fmt.Fprintln(os.Stderr, "known components:")
			for _, c := range benchmarks.Table3 {
				fmt.Fprintln(os.Stderr, "  "+c.Key)
			}
			os.Exit(2)
		}
		g := circuit.NewGraph()
		b := circuit.NewBuilder(g)
		gen(b, f)
		if err := b.Err(); err != nil {
			log.Fatal(err)
		}
		c := g.Circuit()
		fmt.Printf("%s: %v\n", *component, c.Stats())
		if *export != "" {
			out, err := os.Create(*export)
			if err != nil {
				log.Fatal(err)
			}
			defer out.Close()
			if err := circuit.WriteNetlist(out, c); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("netlist written to %s (%d gates)\n", *export, len(c.Gates))
		}

	case *model != "":
		var bench *benchmarks.Benchmark
		for i := range benchmarks.All {
			if fmt.Sprintf("b%d", i+1) == *model {
				bench = &benchmarks.All[i]
			}
		}
		if bench == nil {
			log.Fatalf("unknown model %q", *model)
		}
		net, err := bench.Build()
		if err != nil {
			log.Fatal(err)
		}
		s, lay, err := netgen.FastCount(net, f, netgen.Options{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s (%s)\n", bench.Name, net.Arch())
		fmt.Printf("  %v\n", s)
		fmt.Printf("  inputs: %d data bits (client), %d weight bits (server via OT)\n",
			lay.DataBits, lay.WeightBits)
		fmt.Printf("  output: %d label bits\n", lay.OutputBits)
		fmt.Printf("  garbled tables: %.1f MB\n", float64(s.Ciphertexts())*circuit.CiphertextSize/1e6)

	default:
		flag.Usage()
		os.Exit(2)
	}
}
