package experiments

import (
	"fmt"
	"strings"

	"cebinae/internal/core"
	"cebinae/internal/metrics"
	"cebinae/internal/netem"
	"cebinae/internal/qdisc"
	"cebinae/internal/sim"
)

// The graph scenario family builds arbitrary switch/host topologies from
// data: named switches, explicit links with a qdisc per port, host groups
// attached by access links, and flow groups between them. It is the
// lowering target of the chain (ChainConfig.graph) and of the "graph"
// scenario-file kind, which is how workloads like the community NS-3
// reproduction's multi-hop Cebinae topology (10 Gbps core, 40 senders in
// three groups) run without a recompile. The config is declared on a netem.Topo in its own order, so
// node IDs — and everything derived from them — and the BFS routes are a
// pure function of the config.

// PortQdisc configures one port's (device's) queueing discipline. The
// zero value selects a large drop-tail FIFO — the "every other port"
// default the hand-built scenarios use.
type PortQdisc struct {
	Kind        QdiscKind
	BufferBytes int
	// CebinaeRTT seeds DefaultParams for Cebinae ports (the max base RTT
	// the mechanism should assume at this port).
	CebinaeRTT SimTime
	// params, when non-nil, replaces DefaultParams at a Cebinae port: the
	// dumbbell's Scenario.Params.
	params *core.Params
}

// install builds the port's discipline on the engine that owns dev, with
// the spec's defaults filled (64 MiB, 40 ms), and sets it there. It is the
// one place the experiments construct one; a Cebinae port's rotation
// un-gating is bound to dev's transmitter (read it back as
// dev.Qdisc().(*core.Qdisc)).
func (q PortQdisc) install(dev *netem.Device) {
	buf, rtt := q.BufferBytes, q.CebinaeRTT
	if buf == 0 {
		buf = 64 << 20
	}
	if rtt == 0 {
		rtt = ms(40)
	}
	eng, rate := dev.Node().Engine(), dev.Rate()
	switch q.Kind {
	case FQ:
		dev.SetQdisc(qdisc.NewFQCoDel(eng, buf, 0, qdisc.DefaultCoDelParams()))
	case Strawman:
		dev.SetQdisc(core.NewStrawman(eng, rate, buf, sim.Duration(100e6), 0.01))
	case AFQ, PCQ:
		// A fixed hardware budget: 32 queues × 12.8 kB = 409.6 kB of
		// calendar horizon per flow — ample at 10 ms, far below one flow's
		// BDP share at 200 ms (the ext-scalability sweep).
		const nq, bpr = 32, 12800
		if q.Kind == PCQ {
			dev.SetQdisc(qdisc.NewPCQ(nq, bpr, buf, 8192))
		} else {
			dev.SetQdisc(qdisc.NewAFQ(nq, bpr, buf, 8192))
		}
	case Cebinae:
		p := core.DefaultParams(rate, buf, rtt)
		if q.params != nil {
			p = *q.params
		}
		cq := core.New(eng, rate, buf, p)
		cq.OnDrain = dev.Kick
		dev.SetQdisc(cq)
	default:
		dev.SetQdisc(qdisc.NewFIFO(buf))
	}
}

// GraphSwitch declares one named switch.
type GraphSwitch struct {
	Name string
}

// GraphLink declares a full-duplex switch-to-switch link; QdiscAB guards
// the A→B port and QdiscBA the B→A port.
type GraphLink struct {
	A, B    string
	RateBps float64
	Delay   SimTime
	QdiscAB PortQdisc
	QdiscBA PortQdisc
}

// GraphHostGroup declares Count hosts attached to one switch by identical
// access links. DownQdisc guards the switch→host port — where a downlink
// bottleneck lives; the host→switch port always gets the default FIFO.
type GraphHostGroup struct {
	Name      string
	Count     int
	Attach    string
	RateBps   float64
	Delay     SimTime
	DownQdisc PortQdisc
}

// GraphFlowGroup creates one TCP flow per host of the From group, each
// terminating at a host of the To group (host i sends to To-host
// i mod count(To), so many-to-one fan-in is the natural encoding).
type GraphFlowGroup struct {
	From, To string
	CC       string
	StartAt  SimTime
}

// GraphConfig is a complete data-driven scenario.
type GraphConfig struct {
	Name           string
	Switches       []GraphSwitch
	Links          []GraphLink
	Hosts          []GraphHostGroup
	Flows          []GraphFlowGroup
	Duration       SimTime
	WarmupFraction float64
	MinRTO         SimTime
	Seed           uint64
}

// GraphGroupResult aggregates one flow group.
type GraphGroupResult struct {
	Group      string
	Flows      int
	GoodputBps float64 // aggregate
	JFI        float64 // across the group's flows
}

// GraphResult aggregates a graph run.
type GraphResult struct {
	Name   string
	Flows  []FlowResult
	Groups []GraphGroupResult
	JFI    float64 // across every flow
	Events uint64
}

// Report renders the graph run in canonical byte-stable form. Each flow
// row names its group and its sender's index within the group, read off
// Groups (the flows are in group order).
func (r GraphResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph %s: %d flows, events=%d, JFI=%.9f\n", r.Name, len(r.Flows), r.Events, r.JFI)
	for _, g := range r.Groups {
		fmt.Fprintf(&b, "group %-16s %3d flows %14.6f bps JFI=%.9f\n", g.Group, g.Flows, g.GoodputBps, g.JFI)
	}
	flows := r.Flows
	for _, g := range r.Groups {
		for host, f := range flows[:g.Flows] {
			fmt.Fprintf(&b, "%4d %-16s #%-3d %-8s %14.6f\n", f.Index, g.Group, host, f.CC, f.GoodputBps)
		}
		flows = flows[g.Flows:]
	}
	return b.String()
}

// build declares cfg's topology on f in declaration order — switches,
// then links, then host groups, the order node IDs follow — routes it, and
// returns each host group's hosts and each link's A→B device. It changes
// nothing outside f, so newCluster may call it twice.
func (cfg *GraphConfig) build(f netem.Fabric) (map[string][]*netem.Node, []*netem.Device) {
	t := netem.NewTopo(f)
	switches := make(map[string]*netem.Node, len(cfg.Switches))
	for _, sw := range cfg.Switches {
		switches[sw.Name] = t.Switch(sw.Name)
	}
	fwd := make([]*netem.Device, len(cfg.Links))
	for i, l := range cfg.Links {
		da, db := t.Link(switches[l.A], switches[l.B], netem.LinkConfig{RateBps: l.RateBps, Delay: l.Delay})
		l.QdiscAB.install(da)
		l.QdiscBA.install(db)
		fwd[i] = da
	}
	hosts := make(map[string][]*netem.Node, len(cfg.Hosts))
	for _, hg := range cfg.Hosts {
		for i := 0; i < hg.Count; i++ {
			h := t.Host(fmt.Sprintf("%s%d", hg.Name, i))
			hd, sd := t.Link(h, switches[hg.Attach], netem.LinkConfig{RateBps: hg.RateBps, Delay: hg.Delay})
			hd.SetQdisc(qdisc.NewFIFO(64 << 20))
			hg.DownQdisc.install(sd)
			hosts[hg.Name] = append(hosts[hg.Name], h)
		}
	}
	t.Route()
	return hosts, fwd
}

// RunGraph builds and runs one graph scenario on one engine.
func RunGraph(cfg GraphConfig) GraphResult { return runGraph(cfg, 1) }

// runGraph builds and runs one graph scenario on max(shards, 1) engines
// (see newCluster); its result is byte-identical at any shard count. Each
// flow is labelled by its sender group.
func runGraph(cfg GraphConfig, shards int) GraphResult {
	if cfg.WarmupFraction == 0 {
		cfg.WarmupFraction = 0.2
	}
	if cfg.MinRTO == 0 {
		cfg.MinRTO = Seconds(1)
	}
	cl := newCluster(shards, func(f netem.Fabric) { cfg.build(f) })
	hosts, _ := cfg.build(cl)
	fs := cfg.attach(hosts)
	cl.Run(cfg.Duration)

	rates := fs.rates(warmupEdge(cfg.Duration, cfg.WarmupFraction), cfg.Duration)
	res := GraphResult{Name: cfg.Name, JFI: metrics.JFI(rates), Events: cl.Processed()}
	// Per-flow rows and per-group aggregates, in flow-group declaration
	// order — the order the flows were attached in.
	for _, fg := range cfg.Flows {
		n := len(hosts[fg.From])
		g := GraphGroupResult{Group: fg.From + "->" + fg.To, Flows: n, JFI: metrics.JFI(rates[:n])}
		for _, r := range rates[:n] {
			res.Flows = append(res.Flows, FlowResult{Index: len(res.Flows), Label: fg.From, CC: fg.CC, GoodputBps: r * 8})
			g.GoodputBps += r * 8
		}
		res.Groups = append(res.Groups, g)
		rates = rates[n:]
	}
	return res
}
