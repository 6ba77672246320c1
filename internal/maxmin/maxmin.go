// Package maxmin computes ideal max-min fair allocations via the classic
// water-filling algorithm (paper §3.1) and verifies allocations against the
// bottleneck-link characterisation of Definition 2. The experiments use it
// to produce the ideal allocation {r̂ᵢ} that Fig. 11's normalised JFI is
// measured against.
package maxmin

import (
	"fmt"
	"math"
)

// Network describes link capacities and flow routes for the allocator.
type Network struct {
	// Capacity[l] is the capacity of link l (any consistent unit).
	Capacity []float64
	// Routes[f] lists the link indices flow f traverses.
	Routes [][]int
	// Demand[f] optionally caps flow f's rate (0 or +Inf = unbounded).
	Demand []float64
	// Weight[f] optionally sets flow f's weight for *weighted* max-min
	// fairness (the WFQ generalisation the paper's footnote 2 mentions):
	// unconstrained flows grow proportionally to their weights. Empty or
	// non-positive entries default to 1.
	Weight []float64
}

// Validate checks indices and shapes.
func (n *Network) Validate() error {
	if len(n.Demand) != 0 && len(n.Demand) != len(n.Routes) {
		return fmt.Errorf("maxmin: %d demands for %d flows", len(n.Demand), len(n.Routes))
	}
	for f, route := range n.Routes {
		if len(route) == 0 {
			return fmt.Errorf("maxmin: flow %d has an empty route", f)
		}
		for _, l := range route {
			if l < 0 || l >= len(n.Capacity) {
				return fmt.Errorf("maxmin: flow %d references link %d of %d", f, l, len(n.Capacity))
			}
		}
	}
	for l, c := range n.Capacity {
		if c <= 0 {
			return fmt.Errorf("maxmin: link %d capacity %v must be positive", l, c)
		}
	}
	return nil
}

func (n *Network) demand(f int) float64 {
	if len(n.Demand) == 0 || n.Demand[f] <= 0 {
		return math.Inf(1)
	}
	return n.Demand[f]
}

func (n *Network) weight(f int) float64 {
	if len(n.Weight) == 0 || f >= len(n.Weight) || n.Weight[f] <= 0 {
		return 1
	}
	return n.Weight[f]
}

// Allocate runs progressive water-filling and returns the unique max-min
// fair rate vector.
func Allocate(n *Network) ([]float64, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	nf := len(n.Routes)
	rates := make([]float64, nf)
	frozen := make([]bool, nf)
	remaining := append([]float64(nil), n.Capacity...)

	// Flows per link, in flow order, carved from one array sized by a
	// counting pass: the allocations do not grow with the flows.
	count := make([]int, len(n.Capacity))
	hops := 0
	for _, route := range n.Routes {
		for _, l := range route {
			count[l]++
		}
		hops += len(route)
	}
	flat := make([]int, hops)
	active := make([][]int, len(n.Capacity))
	for l, c := range count {
		active[l], flat = flat[:0:c], flat[c:]
	}
	for f, route := range n.Routes {
		for _, l := range route {
			active[l] = append(active[l], f)
		}
	}

	weightUnfrozen := func(l int) float64 {
		var w float64
		for _, f := range active[l] {
			if !frozen[f] {
				w += n.weight(f)
			}
		}
		return w
	}

	for left := nf; left > 0; {
		// Water level rises uniformly; each unfrozen flow f receives
		// weight(f)·increment. The binding constraint is the smallest of
		// (a) each link's capacity over its unfrozen weight sum and (b)
		// each unfrozen flow's demand headroom per unit weight.
		increment := math.Inf(1)
		for l := range n.Capacity {
			if w := weightUnfrozen(l); w > 0 {
				if share := remaining[l] / w; share < increment {
					increment = share
				}
			}
		}
		for f := 0; f < nf; f++ {
			if !frozen[f] {
				if headroom := (n.demand(f) - rates[f]) / n.weight(f); headroom < increment {
					increment = headroom
				}
			}
		}
		if math.IsInf(increment, 1) || increment < 0 {
			return nil, fmt.Errorf("maxmin: no binding constraint (increment %v)", increment)
		}

		// Raise all unfrozen flows and charge their links.
		for f := 0; f < nf; f++ {
			if frozen[f] {
				continue
			}
			delta := increment * n.weight(f)
			rates[f] += delta
			for _, l := range n.Routes[f] {
				remaining[l] -= delta
			}
		}
		// Freeze flows on saturated links or at their demand.
		const eps = 1e-9
		for f := 0; f < nf; f++ {
			if frozen[f] {
				continue
			}
			done := rates[f] >= n.demand(f)-eps
			if !done {
				for _, l := range n.Routes[f] {
					if remaining[l] <= eps*n.Capacity[l] {
						done = true
						break
					}
				}
			}
			if done {
				frozen[f] = true
				left--
			}
		}
	}
	return rates, nil
}

// VerifyDefinition2 checks an allocation against Definition 2: every flow
// must have a bottleneck link that is saturated and on which the flow's
// weight-normalised rate is maximal (within tolerance tol, relative to
// link capacity). With unit weights this is exactly the paper's statement.
func VerifyDefinition2(n *Network, rates []float64, tol float64) error {
	if len(rates) != len(n.Routes) {
		return fmt.Errorf("maxmin: %d rates for %d flows", len(rates), len(n.Routes))
	}
	load := make([]float64, len(n.Capacity))
	maxOnLink := make([]float64, len(n.Capacity))
	for f, route := range n.Routes {
		norm := rates[f] / n.weight(f)
		for _, l := range route {
			load[l] += rates[f]
			if norm > maxOnLink[l] {
				maxOnLink[l] = norm
			}
		}
	}
	for f, route := range n.Routes {
		if rates[f] >= n.demand(f)-tol {
			continue // demand-bounded flows need no bottleneck
		}
		ok := false
		norm := rates[f] / n.weight(f)
		for _, l := range route {
			saturated := load[l] >= n.Capacity[l]*(1-tol)
			largest := norm >= maxOnLink[l]*(1-tol)
			if saturated && largest {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("maxmin: flow %d (rate %v) has no bottleneck link", f, rates[f])
		}
	}
	return nil
}
