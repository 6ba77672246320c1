package experiments

import (
	"fmt"
	"strings"

	"cebinae/internal/maxmin"
)

// ChainConfig parameterises the multi-bottleneck chain scenario (the
// Fig.-11 parking lot, generalised): long flows traverse every hop of a
// switch chain while per-hop cross traffic contends at each inter-switch
// link. It is the config behind Fig. 11 (CanonicalChain) and the "chain"
// scenario-file kind, so a spec file and the hand-built Go scenario lower
// to the identical construction — a GraphConfig (see graph) the graph
// runner runs.
type ChainConfig struct {
	Name        string
	Hops        int
	LongFlows   int
	CrossPerHop []int
	// LongCC drives the end-to-end flows; CrossCCs[h] drives hop h's
	// cross traffic.
	LongCC   string
	CrossCCs []string
	// BottleneckBps / BufferBytes size each inter-switch link and its
	// queue; LinkDelay / AccessDelay are the one-way propagation delays.
	BottleneckBps float64
	BufferBytes   int
	LinkDelay     SimTime
	AccessDelay   SimTime
	// Qdisc is the discipline at every inter-switch (forward) port.
	Qdisc QdiscKind
	// CebinaeRTT seeds DefaultParams for Cebinae bottlenecks (the max
	// base RTT the mechanism should assume). The forward ports are graph
	// ports (PortQdisc), so zero selects their 40 ms, as a zero
	// BufferBytes selects their 64 MiB.
	CebinaeRTT SimTime
	Duration   SimTime
	Seed       uint64
	Shards     int
}

// CanonicalChain is the Fig.-11 parking-lot configuration: 8 NewReno long
// flows against 2 Bic / 8 Vegas / 4 Cubic cross flows over three
// 100 Mbps bottlenecks.
func CanonicalChain(kind QdiscKind, dur SimTime, shards int) ChainConfig {
	return ChainConfig{
		Name:          fmt.Sprintf("chain/%s", kind),
		Hops:          3,
		LongFlows:     8,
		CrossPerHop:   []int{2, 8, 4},
		LongCC:        "newreno",
		CrossCCs:      []string{"bic", "vegas", "cubic"},
		BottleneckBps: 100e6,
		BufferBytes:   850 * 1500,
		LinkDelay:     ms(5),
		AccessDelay:   ms(5),
		Qdisc:         kind,
		CebinaeRTT:    ms(120),
		Duration:      dur,
		Shards:        shards,
	}
}

// ChainIdeal is the max-min fair allocation (bits/sec, in paper order) of
// the chain's flows by water filling: a long flow crosses every hop, a
// hop-h cross flow hop h alone, and every hop carries BottleneckBps.
func ChainIdeal(cfg ChainConfig) []float64 {
	n := &maxmin.Network{Capacity: make([]float64, cfg.Hops)}
	every := make([]int, cfg.Hops)
	for h := range every {
		n.Capacity[h], every[h] = cfg.BottleneckBps, h
	}
	for i := 0; i < cfg.LongFlows; i++ {
		n.Routes = append(n.Routes, every)
	}
	for h, count := range cfg.CrossPerHop {
		for i := 0; i < count; i++ {
			n.Routes = append(n.Routes, []int{h})
		}
	}
	rates, err := maxmin.Allocate(n)
	if err != nil {
		panic(err)
	}
	return rates
}

// ChainResult is the graph runner's record of a chain run: Config is the
// graph the chain lowered to, and Flows are in paper order — long flows
// first, then each hop's cross flows, each labelled accordingly.
type ChainResult GraphResult

// Goodputs returns the per-flow goodputs (bits/sec) in paper order.
func (r ChainResult) Goodputs() []float64 {
	out := make([]float64, len(r.Flows))
	for i, f := range r.Flows {
		out[i] = f.GoodputBps
	}
	return out
}

// Report renders the chain run in canonical byte-stable form (the
// differential tests compare these bytes across spec-vs-Go builds and
// shard counts).
func (r ChainResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chain %s: %d flows, events=%d, JFI=%.9f\n", r.Config.Name, len(r.Flows), r.Events, r.JFI)
	for _, f := range r.Flows {
		fmt.Fprintf(&b, "%4d %-12s %-8s %14.6f\n", f.Index, f.Label, f.CC, f.GoodputBps)
	}
	return b.String()
}

// graph lowers the chain to the switch graph the graph runner runs, in
// netem.BuildParkingLotOn's declaration order: switches sw0…swH, the hops
// ℓ1…ℓH, then one single-host group per host — each long flow's sender
// (at sw0) and receiver (at swH), then each hop's cross pairs — so node IDs,
// and every flow key and Cebinae cache hash they fix, are the parking
// lot's. Sender groups are named by the flow's paper label.
func (cfg ChainConfig) graph() GraphConfig {
	g := GraphConfig{Name: cfg.Name, Duration: cfg.Duration, Seed: cfg.Seed}
	for i := 0; i <= cfg.Hops; i++ {
		g.Switches = append(g.Switches, GraphSwitch{Name: fmt.Sprintf("sw%d", i)})
	}
	for h := 0; h < cfg.Hops; h++ {
		g.Links = append(g.Links, GraphLink{
			A: g.Switches[h].Name, B: g.Switches[h+1].Name, RateBps: cfg.BottleneckBps, Delay: cfg.LinkDelay,
			QdiscAB: PortQdisc{Kind: cfg.Qdisc, BufferBytes: cfg.BufferBytes, CebinaeRTT: cfg.CebinaeRTT},
		})
	}
	// flow declares a sender at hop from and its receiver at hop to.
	flow := func(label, cc string, from, to int) {
		host := func(name string, sw int) GraphHostGroup {
			return GraphHostGroup{Name: name, Count: 1, Attach: g.Switches[sw].Name, RateBps: 10 * cfg.BottleneckBps, Delay: cfg.AccessDelay}
		}
		g.Hosts = append(g.Hosts, host(label, from), host(label+"r", to))
		g.Flows = append(g.Flows, GraphFlowGroup{From: label, To: label + "r", CC: cc})
	}
	for i := 0; i < cfg.LongFlows; i++ {
		flow(fmt.Sprintf("long%d", i), cfg.LongCC, 0, cfg.Hops)
	}
	for h, n := range cfg.CrossPerHop {
		for c := 0; c < n; c++ {
			flow(fmt.Sprintf("x%d.%d", h+1, c), cfg.CrossCCs[h], h, h+1)
		}
	}
	return g
}

// RunChain runs the chain as the switch graph it declares on cfg.Shards
// engines, returning per-flow goodputs in paper order plus the total
// dispatched event count; both are byte-identical at any shard count.
func RunChain(cfg ChainConfig) ChainResult {
	g := cfg.graph().start(cfg.Shards)
	res := g.measure()
	g.recycle()
	return ChainResult(res)
}
