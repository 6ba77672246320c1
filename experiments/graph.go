package experiments

import (
	"fmt"
	"strings"

	"cebinae/internal/core"
	"cebinae/internal/metrics"
	"cebinae/internal/netem"
	"cebinae/internal/qdisc"
	"cebinae/internal/shard"
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
		dev.SetQdisc(core.NewStrawman(eng, rate, buf))
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

// GraphResult is the one multi-hop record: the run's config (its defaults
// filled), one row per flow in flow-group order, and the JFI and events of
// the whole run. Per-group rows are derived from Config, not stored.
type GraphResult struct {
	Config GraphConfig
	Flows  []FlowResult
	JFI    float64 // across every flow
	Events uint64
}

// Report renders the graph run in canonical byte-stable form: one row per
// flow group with its aggregate goodput and JFI, then one row per flow,
// naming its group and its sender's index within the group. A group's
// flows are the next n of Flows, n the host count of its From group.
func (r GraphResult) Report() string {
	var b, rows strings.Builder
	fmt.Fprintf(&b, "graph %s: %d flows, events=%d, JFI=%.9f\n", r.Config.Name, len(r.Flows), r.Events, r.JFI)
	flows := r.Flows
	for _, fg := range r.Config.Flows {
		var n int
		for _, hg := range r.Config.Hosts {
			if hg.Name == fg.From {
				n = hg.Count
			}
		}
		group := fg.From + "->" + fg.To
		goodputs := make([]float64, n)
		var sum float64
		for host, f := range flows[:n] {
			goodputs[host] = f.GoodputBps
			sum += f.GoodputBps
			fmt.Fprintf(&rows, "%4d %-16s #%-3d %-8s %14.6f\n", f.Index, group, host, f.CC, f.GoodputBps)
		}
		fmt.Fprintf(&b, "group %-16s %3d flows %14.6f bps JFI=%.9f\n", group, n, sum, metrics.JFI(goodputs))
		flows = flows[n:]
	}
	b.WriteString(rows.String())
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
func RunGraph(cfg GraphConfig) GraphResult {
	g := cfg.start(1)
	res := g.measure()
	g.recycle()
	return res
}

// newCluster builds the partitioned cluster for the topology `build`
// constructs, on max(n, 1) engines. A multi-shard request flows through
// the min-cut partitioner: AutoPlan records the builder's construction
// trace against a throwaway fabric, computes the widest-lookahead
// load-balanced partition, and the returned cluster places the second
// (real) build of the same topology accordingly. Single-shard requests
// skip the recording pass.
func newCluster(n int, build func(netem.Fabric)) *shard.Cluster {
	if n <= 1 {
		return shard.NewCluster(1)
	}
	return shard.NewClusterWithPlan(shard.AutoPlan(n, build))
}

// graphRun is a graph scenario built on its cluster with its flows
// attached, not yet run: the first half of every TCP run. Run arms its
// dumbbell-only instruments on it before measure runs it.
type graphRun struct {
	cfg    GraphConfig
	cl     *shard.Cluster
	fwd    []*netem.Device // each link's A→B device
	fs     *flowSet
	warmup sim.Time
}

// start fills cfg's defaults, builds it on max(shards, 1) engines (see
// newCluster) and attaches its flows. The result of measure is
// byte-identical at any shard count.
func (cfg GraphConfig) start(shards int) *graphRun {
	if cfg.WarmupFraction == 0 {
		cfg.WarmupFraction = defaultWarmupFraction
	}
	if cfg.MinRTO == 0 {
		cfg.MinRTO = defaultMinRTO
	}
	cl := newCluster(shards, func(f netem.Fabric) { cfg.build(f) })
	hosts, fwd := cfg.build(cl)
	warmup := warmupEdge(cfg.Duration, cfg.WarmupFraction)
	return &graphRun{cfg: cfg, cl: cl, fwd: fwd, fs: cfg.attach(hosts, warmup), warmup: warmup}
}

// recycle is the run's teardown, called after its runner's last read of
// it: every connection's scoreboard blocks and every shard's stream blocks
// and packet slabs go back to the process, cleared, for the next run to
// draw (see recycleCluster).
func (g *graphRun) recycle() {
	for _, c := range g.fs.conns {
		c.Recycle()
	}
	recycleCluster(g.cl)
}

// recycleCluster hands back the stream blocks of every shard's engine and
// the packet slabs of every shard's network. No result depends on which
// memory a chunk came from, so a run that draws recycled chunks is
// byte-identical to one that allocates them.
func recycleCluster(cl *shard.Cluster) {
	for i := 0; i < cl.Shards(); i++ {
		sh := cl.Shard(i)
		sh.Engine.Recycle()
		sh.Net.Pool().Recycle()
	}
}

// measure runs g to its horizon and measures every flow's goodput,
// labelled by its sender group, and the JFI across them.
func (g *graphRun) measure() GraphResult {
	g.cl.Run(g.cfg.Duration)
	rates := g.fs.rates(g.warmup, g.cfg.Duration)
	res := GraphResult{Config: g.cfg, Flows: make([]FlowResult, len(rates)), JFI: metrics.JFI(rates), Events: g.cl.Processed()}
	for i, e := range g.fs.ends {
		res.Flows[i] = FlowResult{Index: i, Label: e.group, CC: e.cc, GoodputBps: rates[i] * 8}
	}
	return res
}
