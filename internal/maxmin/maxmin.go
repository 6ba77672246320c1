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
	// Weight[f] optionally sets flow f's weight for *weighted* max-min
	// fairness (the WFQ generalisation the paper's footnote 2 mentions):
	// unconstrained flows grow proportionally to their weights. Empty or
	// non-positive entries default to 1; NaN and +Inf are refused.
	Weight []float64
}

// Validate checks indices, shapes and values: every capacity positive and
// finite, Demand and Weight empty or one entry per flow, no NaN demand
// and no NaN or +Inf weight.
func (n *Network) Validate() error {
	if len(n.Demand) != 0 && len(n.Demand) != len(n.Routes) {
		return fmt.Errorf("maxmin: %d demands for %d flows", len(n.Demand), len(n.Routes))
	}
	if len(n.Weight) != 0 && len(n.Weight) != len(n.Routes) {
		return fmt.Errorf("maxmin: %d weights for %d flows", len(n.Weight), len(n.Routes))
	}
	for f, d := range n.Demand {
		if math.IsNaN(d) {
			return fmt.Errorf("maxmin: flow %d demand %v must be a number", f, d)
		}
	}
	for f, w := range n.Weight {
		if math.IsNaN(w) || math.IsInf(w, 1) {
			return fmt.Errorf("maxmin: flow %d weight %v must be finite", f, w)
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

func (n *Network) weight(f int) float64 {
	if len(n.Weight) == 0 || f >= len(n.Weight) || n.Weight[f] <= 0 {
		return 1
	}
	return n.Weight[f]
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

	// live holds the unfrozen flows in flow order. wsum[l] is the weight
	// of link l's unfrozen flows and headroom the least unfrozen demand
	// headroom per unit weight; the pass that fills live sums and
	// minimises them in flow order, as a scan of every flow would.
	live := make([]int, nf)
	wsum := make([]float64, len(n.Capacity))
	headroom := math.Inf(1)
	for f, route := range n.Routes {
		live[f] = f
		if h := (n.demand(f) - rates[f]) / n.weight(f); h < headroom {
			headroom = h
		}
		for _, l := range route {
			wsum[l] += n.weight(f)
		}
	}

	for len(live) > 0 {
		// Water level rises uniformly; each unfrozen flow f receives
		// weight(f)·increment. The binding constraint is the smallest of
		// (a) each link's capacity over its unfrozen weight sum and (b)
		// each unfrozen flow's demand headroom per unit weight.
		increment := math.Inf(1)
		for l, w := range wsum {
			if w > 0 {
				if share := remaining[l] / w; share < increment {
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
			delta := increment * n.weight(f)
			rates[f] += delta
			for _, l := range n.Routes[f] {
				remaining[l] -= delta
			}
		}
		// Freeze flows on saturated links or at their demand. The rest
		// stay live, and refill wsum and headroom for the next round.
		const eps = 1e-9
		clear(wsum)
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
			if h := (n.demand(f) - rates[f]) / n.weight(f); h < headroom {
				headroom = h
			}
			for _, l := range n.Routes[f] {
				wsum[l] += n.weight(f)
			}
		}
		live = rising
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
