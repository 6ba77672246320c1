package experiments

import (
	"fmt"
	"strings"

	"cebinae/internal/maxmin"
	"cebinae/internal/metrics"
	"cebinae/internal/netem"
	"cebinae/internal/qdisc"
)

// ChainConfig parameterises the multi-bottleneck chain scenario (the
// Fig.-11 parking lot, generalised): long flows traverse every hop of a
// switch chain while per-hop cross traffic contends at each inter-switch
// link. It is the builder behind Fig. 11 (CanonicalChain) and the "chain"
// scenario-file kind, so a spec file and the hand-built Go scenario lower
// to the identical construction.
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
	// base RTT the mechanism should assume).
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

// ChainFlowResult is one chain flow's measured outcome.
type ChainFlowResult struct {
	Index int
	// Label names the flow in paper order: long flows first, then each
	// hop's cross flows.
	Label      string
	CC         string
	GoodputBps float64
}

// ChainResult aggregates a chain run.
type ChainResult struct {
	Name   string
	Flows  []ChainFlowResult
	JFI    float64
	Events uint64
}

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
	fmt.Fprintf(&b, "chain %s: %d flows, events=%d, JFI=%.9f\n", r.Name, len(r.Flows), r.Events, r.JFI)
	for _, f := range r.Flows {
		fmt.Fprintf(&b, "%4d %-12s %-8s %14.6f\n", f.Index, f.Label, f.CC, f.GoodputBps)
	}
	return b.String()
}

// RunChain builds and runs the chain for one configuration, returning
// per-flow goodputs in paper order plus the total dispatched event count;
// both are byte-identical at any shard count.
func RunChain(cfg ChainConfig) ChainResult {
	btlQdisc := func(dev *netem.Device) netem.Qdisc {
		q, _ := newPortQdisc(cfg.Qdisc, dev, cfg.BottleneckBps, cfg.BufferBytes, cfg.CebinaeRTT, nil)
		return q
	}
	build := func(f netem.Fabric) *netem.ParkingLot {
		return netem.BuildParkingLotOn(f, netem.ParkingLotConfig{
			Hops:            cfg.Hops,
			LongFlows:       cfg.LongFlows,
			CrossPerHop:     cfg.CrossPerHop,
			BottleneckBps:   cfg.BottleneckBps,
			LinkDelay:       cfg.LinkDelay,
			AccessDelay:     cfg.AccessDelay,
			BottleneckQdisc: btlQdisc,
			DefaultQdisc:    func() netem.Qdisc { return qdisc.NewFIFO(64 << 20) },
		})
	}
	cl := newCluster(cfg.Shards, func(f netem.Fabric) { build(f) })
	pl := build(cl)

	var ends []flowEnd
	var labels []string
	for i := 0; i < cfg.LongFlows; i++ {
		ends = append(ends, flowEnd{s: pl.LongSenders[i], r: pl.LongReceivers[i], cc: cfg.LongCC})
		labels = append(labels, fmt.Sprintf("long%d", i))
	}
	for h := 0; h < cfg.Hops; h++ {
		for c := range pl.CrossSenders[h] {
			ends = append(ends, flowEnd{s: pl.CrossSenders[h][c], r: pl.CrossReceivers[h][c], cc: cfg.CrossCCs[h]})
			labels = append(labels, fmt.Sprintf("x%d.%d", h+1, c))
		}
	}
	fs := attachFlows(ends, cfg.Seed, Seconds(1))
	cl.Run(cfg.Duration)

	res := ChainResult{Name: cfg.Name, Events: cl.Processed()}
	rates := fs.rates(cfg.Duration/5, cfg.Duration)
	for i, e := range ends {
		res.Flows = append(res.Flows, ChainFlowResult{
			Index: i, Label: labels[i], CC: e.cc, GoodputBps: rates[i] * 8,
		})
	}
	res.JFI = metrics.JFI(rates)
	return res
}
