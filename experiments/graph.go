package experiments

import (
	"fmt"
	"strings"

	"cebinae/internal/metrics"
	"cebinae/internal/netem"
	"cebinae/internal/qdisc"
	"cebinae/internal/sim"
)

// The graph scenario family builds arbitrary switch/host topologies from
// data: named switches, explicit links with a qdisc per port, host groups
// attached by access links, and flow groups between them. It is the
// lowering target of the "graph" scenario-file kind, which is how
// workloads like the community NS-3 reproduction's multi-hop Cebinae
// topology (10 Gbps core, 40 senders in three groups) run without a
// recompile. Construction order follows the config's declaration order
// exactly, so node IDs — and everything derived from them — are a pure
// function of the config.

// PortQdisc configures one port's (device's) queueing discipline. The
// zero value selects a large drop-tail FIFO — the "every other port"
// default the hand-built scenarios use.
type PortQdisc struct {
	Kind        QdiscKind
	BufferBytes int
	// CebinaeRTT seeds DefaultParams for Cebinae ports (the max base RTT
	// the mechanism should assume at this port).
	CebinaeRTT SimTime
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

// GraphFlowResult is one flow's measured outcome.
type GraphFlowResult struct {
	Index int
	// Group labels the flow "from→to"; Host is the sender's index within
	// the From group.
	Group      string
	Host       int
	CC         string
	GoodputBps float64
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
	Flows  []GraphFlowResult
	Groups []GraphGroupResult
	JFI    float64 // across every flow
	Events uint64
}

// Report renders the graph run in canonical byte-stable form.
func (r GraphResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph %s: %d flows, events=%d, JFI=%.9f\n", r.Name, len(r.Flows), r.Events, r.JFI)
	for _, g := range r.Groups {
		fmt.Fprintf(&b, "group %-16s %3d flows %14.6f bps JFI=%.9f\n", g.Group, g.Flows, g.GoodputBps, g.JFI)
	}
	for _, f := range r.Flows {
		fmt.Fprintf(&b, "%4d %-16s #%-3d %-8s %14.6f\n", f.Index, f.Group, f.Host, f.CC, f.GoodputBps)
	}
	return b.String()
}

// buildPortQdisc constructs one port's discipline from its spec, filling
// the spec's defaults.
func buildPortQdisc(cfg PortQdisc, rate float64, dev *netem.Device) netem.Qdisc {
	buf := cfg.BufferBytes
	if buf == 0 {
		buf = 64 << 20
	}
	rtt := cfg.CebinaeRTT
	if rtt == 0 {
		rtt = ms(40)
	}
	q, _ := newPortQdisc(cfg.Kind, dev, rate, buf, rtt, nil)
	return q
}

// graphTopo is one constructed instance of a GraphConfig.
type graphTopo struct {
	switches []*netem.Node
	swIndex  map[string]int
	// hosts[g][i] is host i of group g; hostDev/swDev its access-link
	// device pair (host→switch, switch→host).
	hosts   [][]*netem.Node
	hostDev [][]*netem.Device
	swDev   [][]*netem.Device
	groupIx map[string]int
	// adj[s] lists (neighbor switch, egress device) in link declaration
	// order — the deterministic order BFS expands.
	adj [][]graphEdge
}

type graphEdge struct {
	to int
	// dev is the local egress toward `to`; rev is the opposite direction
	// (the device `to` uses to forward back), which route installation
	// needs when the BFS tree crosses this edge.
	dev, rev *netem.Device
}

// buildGraph constructs the topology on a network in declaration order:
// switches, then links, then host groups.
func buildGraph(w *netem.Network, cfg GraphConfig) *graphTopo {
	t := &graphTopo{
		swIndex: make(map[string]int, len(cfg.Switches)),
		groupIx: make(map[string]int, len(cfg.Hosts)),
	}
	for i, sw := range cfg.Switches {
		t.switches = append(t.switches, w.NewNode(sw.Name))
		t.swIndex[sw.Name] = i
	}
	t.adj = make([][]graphEdge, len(cfg.Switches))
	for _, l := range cfg.Links {
		ai, bi := t.swIndex[l.A], t.swIndex[l.B]
		da, db := w.Connect(t.switches[ai], t.switches[bi], netem.LinkConfig{RateBps: l.RateBps, Delay: l.Delay})
		da.SetQdisc(buildPortQdisc(l.QdiscAB, l.RateBps, da))
		db.SetQdisc(buildPortQdisc(l.QdiscBA, l.RateBps, db))
		t.adj[ai] = append(t.adj[ai], graphEdge{bi, da, db})
		t.adj[bi] = append(t.adj[bi], graphEdge{ai, db, da})
	}
	for gi, hg := range cfg.Hosts {
		t.groupIx[hg.Name] = gi
		si := t.swIndex[hg.Attach]
		var nodes []*netem.Node
		var hdevs, sdevs []*netem.Device
		for i := 0; i < hg.Count; i++ {
			h := w.NewNode(fmt.Sprintf("%s%d", hg.Name, i))
			hd, sd := w.Connect(h, t.switches[si], netem.LinkConfig{RateBps: hg.RateBps, Delay: hg.Delay})
			hd.SetQdisc(qdisc.NewFIFO(64 << 20))
			sd.SetQdisc(buildPortQdisc(hg.DownQdisc, hg.RateBps, sd))
			nodes = append(nodes, h)
			hdevs = append(hdevs, hd)
			sdevs = append(sdevs, sd)
		}
		t.hosts = append(t.hosts, nodes)
		t.hostDev = append(t.hostDev, hdevs)
		t.swDev = append(t.swDev, sdevs)
	}
	return t
}

// installRoutes wires every switch toward host h (group g, index i) along
// the BFS tree rooted at the host's attach switch, plus the last-hop
// switch→host route, plus a route from every other host (whose only
// egress is its access link). BFS expands neighbours in link declaration
// order, so next hops — and therefore packet paths — are deterministic.
func (t *graphTopo) installRoutes(cfg GraphConfig) {
	for gi := range t.hosts {
		si := t.swIndex[cfg.Hosts[gi].Attach]
		for hi, h := range t.hosts[gi] {
			// BFS from the attach switch: parent[v] is the device v uses
			// to forward toward the attach switch (and so toward h).
			parent := make([]*netem.Device, len(t.switches))
			visited := make([]bool, len(t.switches))
			visited[si] = true
			queue := []int{si}
			for len(queue) > 0 {
				v := queue[0]
				queue = queue[1:]
				for _, e := range t.adj[v] {
					if !visited[e.to] {
						visited[e.to] = true
						parent[e.to] = e.rev
						queue = append(queue, e.to)
					}
				}
			}
			for v := range t.switches {
				if v == si {
					t.switches[v].AddRoute(h.ID, t.swDev[gi][hi])
				} else if parent[v] != nil {
					t.switches[v].AddRoute(h.ID, parent[v])
				}
			}
			for g2 := range t.hosts {
				for h2, other := range t.hosts[g2] {
					if other != h {
						other.AddRoute(h.ID, t.hostDev[g2][h2])
					}
				}
			}
		}
	}
}

// RunGraph builds and runs one graph scenario on one engine.
func RunGraph(cfg GraphConfig) GraphResult {
	if cfg.WarmupFraction == 0 {
		cfg.WarmupFraction = 0.2
	}
	if cfg.MinRTO == 0 {
		cfg.MinRTO = Seconds(1)
	}
	eng := sim.NewEngine()
	t := buildGraph(netem.NewNetwork(eng), cfg)
	t.installRoutes(cfg)

	var ends []flowEnd
	for _, fg := range cfg.Flows {
		from, to := t.groupIx[fg.From], t.groupIx[fg.To]
		for i, s := range t.hosts[from] {
			ends = append(ends, flowEnd{s, t.hosts[to][i%len(t.hosts[to])], fg.CC, fg.StartAt})
		}
	}
	fs := attachFlows(ends, cfg.Seed, cfg.MinRTO)

	eng.RunUntil(cfg.Duration)

	res := GraphResult{Name: cfg.Name, Events: eng.Processed}
	//lint:ignore simtime warmup is a fraction of a bounded scenario duration (« 2^53 ns); sub-nanosecond rounding of a measurement window is immaterial
	warmup := sim.Time(float64(cfg.Duration) * cfg.WarmupFraction)
	rates := fs.rates(warmup, cfg.Duration)
	res.JFI = metrics.JFI(rates)

	// Per-flow rows and per-group aggregates, in flow-group declaration
	// order — the order the flows were attached in.
	idx := 0
	for _, fg := range cfg.Flows {
		n := len(t.hosts[t.groupIx[fg.From]])
		g := GraphGroupResult{Group: fg.From + "->" + fg.To, Flows: n}
		groupRates := rates[idx : idx+n]
		for host, r := range groupRates {
			res.Flows = append(res.Flows, GraphFlowResult{
				Index: idx + host, Group: g.Group, Host: host, CC: fg.CC, GoodputBps: r * 8,
			})
			g.GoodputBps += r * 8
		}
		g.JFI = metrics.JFI(groupRates)
		res.Groups = append(res.Groups, g)
		idx += n
	}
	return res
}
