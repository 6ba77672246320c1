// Multi-bottleneck parking lot (paper Fig. 11 / §5.3): eight NewReno flows
// traverse a chain of three 100 Mbps bottlenecks, contending with 2 BIC,
// 8 Vegas, and 4 Cubic cross flows at successive hops. The ideal max-min
// allocation is computed by water filling; the experiment reports each
// flow's goodput against it and the normalised JFI (§5.3) under FIFO and
// Cebinae — demonstrating that per-link taxation composes across a network
// of bottlenecks (Definition 2).
//
//	go run ./examples/multi_bottleneck [-scale 0.3]
package main

import (
	"flag"
	"fmt"
	"log"

	"cebinae/experiments"
	"cebinae/internal/fleet"
)

func main() {
	scale := flag.Float64("scale", 0.3, "fraction of the paper's 100 s horizon")
	flag.Parse()

	fmt.Println("Computing ideal max-min allocation by water filling…")
	ideal := experiments.ChainIdeal(experiments.CanonicalChain(experiments.FIFO, 0, 0))
	fmt.Printf("  long NewReno: %.2f Mbps | BIC cross: %.2f | Vegas cross: %.2f | Cubic cross: %.2f\n\n",
		ideal[0]/1e6, ideal[8]/1e6, ideal[10]/1e6, ideal[18]/1e6)

	// One fleet job per discipline, rendered as cebinae-bench's fig11.
	sec, err := experiments.FindSection(experiments.Scale(*scale), "fig11")
	if err != nil {
		log.Fatal(err)
	}
	report, err := experiments.RunSection(sec, fleet.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(report)
}
