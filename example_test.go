package cebinae_test

import (
	"fmt"

	"cebinae"
	"cebinae/internal/maxmin"
)

// ExampleJFI shows Jain's Fairness Index at its extremes.
func ExampleJFI() {
	fmt.Printf("%.3f\n", cebinae.JFI([]float64{10, 10, 10, 10}))
	fmt.Printf("%.3f\n", cebinae.JFI([]float64{40, 0, 0, 0}))
	// Output:
	// 1.000
	// 0.250
}

// ExampleNormalizedJFI measures distance to an uneven ideal allocation
// (the paper's §5.3 metric): tracking the ideal exactly scores 1.
func ExampleNormalizedJFI() {
	ideal := []float64{6.25, 25, 12.5}
	fmt.Printf("%.3f\n", cebinae.NormalizedJFI([]float64{6.25, 25, 12.5}, ideal))
	fmt.Printf("%.3f\n", cebinae.NormalizedJFI([]float64{1, 40, 12.5}, ideal))
	// Output:
	// 1.000
	// 0.708
}

// ExampleDefaultParams derives Cebinae parameters for a 100 Mbps port with
// a 450-MTU buffer and 40 ms flows, per §4.4's recipe.
func ExampleDefaultParams() {
	p := cebinae.DefaultParams(100e6, 450*1500, cebinae.Millis(40))
	fmt.Printf("tau=%.2f dT=%v P=%d\n", p.Tau, p.DT.Std(), p.P)
	// Output:
	// tau=0.01 dT=67.108864ms P=1
}

// ExampleNewEngine runs three events in virtual time order.
func ExampleNewEngine() {
	eng := cebinae.NewEngine()
	eng.ScheduleCall(cebinae.Millis(3), cebinae.Func(func() { fmt.Println("third") }), nil)
	eng.ScheduleCall(cebinae.Millis(1), cebinae.Func(func() { fmt.Println("first") }), nil)
	eng.ScheduleCall(cebinae.Millis(2), cebinae.Func(func() { fmt.Println("second") }), nil)
	eng.Run(cebinae.Seconds(1))
	// Output:
	// first
	// second
	// third
}

// Example_waterFilling computes the paper's Figure 2b ideal allocation:
// flow A over ℓ1→ℓ3→ℓ4, B over ℓ1→ℓ2, C over ℓ2→ℓ5, with ℓ5's tiny
// capacity bottlenecking C, which frees ℓ2 capacity for B, and so on.
func Example_waterFilling() {
	n := &maxmin.Network{
		Capacity: []float64{20, 10, 20, 20, 2},
		Routes: [][]int{
			{0, 2, 3}, // A
			{0, 1},    // B
			{1, 4},    // C
		},
	}
	rates, _ := maxmin.Allocate(n)
	fmt.Printf("A=%.0f B=%.0f C=%.0f\n", rates[0], rates[1], rates[2])
	// Output:
	// A=12 B=8 C=2
}
