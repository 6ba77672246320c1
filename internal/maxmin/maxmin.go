// Package maxmin computes ideal max-min fair allocations via the classic
// water-filling algorithm (paper §3.1) and verifies allocations against the
// bottleneck-link characterisation of Definition 2. The experiments use it
// to produce the ideal allocation {r̂ᵢ} that Fig. 11's normalised JFI is
// measured against, and the backbone tier to score every flow it saw.
//
// Each water-filling round costs the links plus the route hops of the
// flows not yet frozen, so a run costs the sum over rounds of the flows
// still rising: the 10⁵-flow backbone's 70 675 scored flows take 860
// rounds and about 1 M flow visits a pass.
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
	// Demand[f] optionally caps flow f's rate (non-positive or +Inf =
	// unbounded; NaN is refused).
	Demand []float64
}

// Validate checks indices, shapes and values: every capacity positive and
// finite, Demand empty or one entry per flow, and no NaN demand.
func (n *Network) Validate() error {
	if len(n.Demand) != 0 && len(n.Demand) != len(n.Routes) {
		return fmt.Errorf("maxmin: %d demands for %d flows", len(n.Demand), len(n.Routes))
	}
	for f, d := range n.Demand {
		if math.IsNaN(d) {
			return fmt.Errorf("maxmin: flow %d demand %v must be a number", f, d)
		}
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
		if !(c > 0) || math.IsInf(c, 1) {
			return fmt.Errorf("maxmin: link %d capacity %v must be positive and finite", l, c)
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

// Allocate runs progressive water-filling and returns the unique max-min
// fair rate vector. A round costs the links plus the route hops of the
// flows still rising: a flow leaves the live list in the round that
// freezes it, so a demand-limited run of many rounds (the backbone's)
// visits each flow once per round it rises in, not every flow each round.
func Allocate(n *Network) ([]float64, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	nf := len(n.Routes)
	rates := make([]float64, nf)
	remaining := append([]float64(nil), n.Capacity...)

	// live holds the unfrozen flows in flow order. onLink[l] counts link
	// l's unfrozen flows and headroom is the least unfrozen demand
	// headroom; the pass that fills live counts and minimises them in
	// flow order, as a scan of every flow would.
	live := make([]int, nf)
	onLink := make([]int, len(n.Capacity))
	headroom := math.Inf(1)
	for f, route := range n.Routes {
		live[f] = f
		if h := n.demand(f) - rates[f]; h < headroom {
			headroom = h
		}
		for _, l := range route {
			onLink[l]++
		}
	}

	for len(live) > 0 {
		// Water level rises uniformly; each unfrozen flow receives the
		// increment. The binding constraint is the smallest of (a) each
		// link's remaining capacity over its unfrozen flows and (b) each
		// unfrozen flow's demand headroom.
		increment := math.Inf(1)
		for l, k := range onLink {
			if k > 0 {
				if share := remaining[l] / float64(k); share < increment {
					increment = share
				}
			}
		}
		if headroom < increment {
			increment = headroom
		}
		if math.IsInf(increment, 1) || increment < 0 {
			return nil, fmt.Errorf("maxmin: no binding constraint (increment %v)", increment)
		}

		// Raise all unfrozen flows and charge their links.
		for _, f := range live {
			rates[f] += increment
			for _, l := range n.Routes[f] {
				remaining[l] -= increment
			}
		}
		// Freeze flows on saturated links or at their demand. The rest
		// stay live, and refill onLink and headroom for the next round.
		const eps = 1e-9
		clear(onLink)
		headroom = math.Inf(1)
		rising := live[:0]
		for _, f := range live {
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
				continue
			}
			rising = append(rising, f)
			if h := n.demand(f) - rates[f]; h < headroom {
				headroom = h
			}
			for _, l := range n.Routes[f] {
				onLink[l]++
			}
		}
		live = rising
	}
	return rates, nil
}

// VerifyDefinition2 checks an allocation against Definition 2: every flow
// must have a bottleneck link that is saturated and on which the flow's
// rate is maximal (within tolerance tol, relative to link capacity).
func VerifyDefinition2(n *Network, rates []float64, tol float64) error {
	if len(rates) != len(n.Routes) {
		return fmt.Errorf("maxmin: %d rates for %d flows", len(rates), len(n.Routes))
	}
	load := make([]float64, len(n.Capacity))
	maxOnLink := make([]float64, len(n.Capacity))
	for f, route := range n.Routes {
		for _, l := range route {
			load[l] += rates[f]
			if rates[f] > maxOnLink[l] {
				maxOnLink[l] = rates[f]
			}
		}
	}
	for f, route := range n.Routes {
		if rates[f] >= n.demand(f)-tol {
			continue // demand-bounded flows need no bottleneck
		}
		ok := false
		for _, l := range route {
			saturated := load[l] >= n.Capacity[l]*(1-tol)
			largest := rates[f] >= maxOnLink[l]*(1-tol)
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
