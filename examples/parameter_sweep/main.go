// Parameter sweep (paper Fig. 12 / §5.4): 16 NewReno flows against one
// Cubic flow on 100 Mbps, sweeping Cebinae's thresholds δp = δf = τ
// together from 1% to 100%. Small thresholds mitigate unfairness with
// minimal efficiency cost; thresholds approaching the flows' fair share
// collapse goodput, as the paper's Fig. 12 shows.
//
//	go run ./examples/parameter_sweep [-scale 0.2]
package main

import (
	"flag"
	"fmt"
	"log"

	"cebinae/experiments"
	"cebinae/internal/fleet"
)

func main() {
	scale := flag.Float64("scale", 0.2, "fraction of the paper's 100 s horizon")
	flag.Parse()

	fmt.Println("Sweeping δp = δf = τ for 16 NewReno vs 1 Cubic on 100 Mbps…")
	// One fleet job per threshold (and per reference), rendered as
	// cebinae-bench's fig12.
	sec, err := experiments.FindSection(experiments.Scale(*scale), "fig12")
	if err != nil {
		log.Fatal(err)
	}
	report, err := experiments.RunSection(sec, fleet.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(report)
}
