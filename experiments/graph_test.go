package experiments

import (
	"strings"
	"testing"

	"cebinae/internal/netem"
	"cebinae/internal/qdisc"
	"cebinae/internal/sim"
)

// smallGraph is a compact two-switch instance of the multi-hop family:
// two sender groups on s1 (one crossing the core toward receivers on s2),
// Cebinae guarding the downlink ports, enough to exercise switch routing,
// per-port qdiscs, and fan-in.
func smallGraph() GraphConfig {
	return GraphConfig{
		Name:     "graph/small",
		Switches: []GraphSwitch{{Name: "t1"}, {Name: "t2"}},
		Links: []GraphLink{
			{A: "t1", B: "t2", RateBps: 200e6, Delay: ms(2)},
		},
		Hosts: []GraphHostGroup{
			{Name: "s1", Count: 3, Attach: "t1", RateBps: 100e6, Delay: ms(1)},
			{Name: "s2", Count: 2, Attach: "t1", RateBps: 100e6, Delay: ms(1)},
			{Name: "r1", Count: 1, Attach: "t2", RateBps: 100e6, Delay: ms(1),
				DownQdisc: PortQdisc{Kind: Cebinae, BufferBytes: 1 << 20, CebinaeRTT: ms(40)}},
			{Name: "r2", Count: 1, Attach: "t2", RateBps: 100e6, Delay: ms(1),
				DownQdisc: PortQdisc{Kind: Cebinae, BufferBytes: 1 << 20, CebinaeRTT: ms(40)}},
		},
		Flows: []GraphFlowGroup{
			{From: "s1", To: "r1", CC: "newreno"},
			{From: "s2", To: "r2", CC: "cubic", StartAt: Millis(100)},
		},
		Duration: Seconds(1),
		Seed:     3,
	}
}

// TestGraphRuns: the small graph builds, routes every flow, and renders
// its report header.
func TestGraphRuns(t *testing.T) {
	r := RunGraph(smallGraph())
	if len(r.Flows) != 5 {
		t.Fatalf("flows = %d, want 5", len(r.Flows))
	}
	for _, f := range r.Flows {
		if f.GoodputBps <= 0 {
			t.Fatalf("flow %d (%s) made no progress", f.Index, f.Label)
		}
	}
	if r.JFI <= 0 || r.JFI > 1 {
		t.Fatalf("JFI = %v out of range", r.JFI)
	}
	if !strings.Contains(r.Report(), "graph graph/small: 5 flows") {
		t.Fatalf("report header malformed:\n%s", r.Report())
	}
}

// declared is one recorded topology build: its nodes in ID order, its
// links in creation order, and which nodes are hosts.
type declared struct {
	nodes []*netem.Node
	links []netem.GraphLink
	host  map[*netem.Node]bool
}

// declare records one build, which returns its hosts.
func declare(build func(netem.Fabric) []*netem.Node) declared {
	w := netem.NewNetwork(sim.NewEngine())
	rec := netem.NewRecorder(w, 1)
	d := declared{host: map[*netem.Node]bool{}}
	for _, h := range build(rec) {
		d.host[h] = true
	}
	d.nodes, d.links = w.Nodes(), rec.Graph.Links
	return d
}

// declareGraph records g's build.
func declareGraph(g GraphConfig) declared {
	return declare(func(f netem.Fabric) []*netem.Node {
		var hosts []*netem.Node
		byGroup, _ := g.build(f)
		for _, hs := range byGroup {
			hosts = append(hosts, hs...)
		}
		return hosts
	})
}

// checkSameDeclaration fails t where got declares another topology than
// the hand-built want: node IDs and kinds, each link's rate, delay and
// endpoints in creation order (a link's endpoints in either order unless
// directed), and every switch's next-hop port toward every host.
func checkSameDeclaration(t *testing.T, name string, got, want declared, directed bool) {
	t.Helper()
	if len(got.nodes) != len(want.nodes) {
		t.Fatalf("graph declares %d nodes, the %s %d", len(got.nodes), name, len(want.nodes))
	}
	for i, n := range want.nodes {
		if m := got.nodes[i]; m.ID != n.ID || got.host[m] != want.host[n] {
			t.Errorf("node %d: graph has %s (ID %d, host %t), the %s %s (ID %d, host %t)",
				i, m.Name, m.ID, got.host[m], name, n.Name, n.ID, want.host[n])
		}
	}
	if len(got.links) != len(want.links) {
		t.Fatalf("graph declares %d links, the %s %d", len(got.links), name, len(want.links))
	}
	for i, l := range want.links {
		g := got.links[i]
		if !directed && g.A == l.B && g.B == l.A {
			g.A, g.B = g.B, g.A
		}
		if g != l {
			t.Errorf("link %d: graph %+v, the %s %+v", i, got.links[i], name, l)
		}
	}
	// port is the position of n's next hop toward dst among its devices.
	port := func(n *netem.Node, dst *netem.Node) int {
		for k, d := range n.Devices() {
			if d == n.NextHop(dst.ID) {
				return k
			}
		}
		return -1
	}
	for i, sw := range want.nodes {
		if want.host[sw] {
			continue
		}
		for j, dst := range want.nodes {
			if !want.host[dst] {
				continue
			}
			if g, w := port(got.nodes[i], got.nodes[j]), port(sw, dst); g != w || w < 0 {
				t.Errorf("switch %s toward host %d: graph port %d, %s port %d", sw.Name, dst.ID, g, name, w)
			}
		}
	}
}

// TestDumbbellIsGraphDeclaration: the graph a dumbbell scenario lowers to
// declares the topology netem.BuildDumbbell builds — the same nodes, links
// (BuildDumbbell links each receiver from its switch, the graph from the
// host) and next hops — so every flow key and Cebinae cache hash the node
// IDs fix is BuildDumbbell's.
func TestDumbbellIsGraphDeclaration(t *testing.T) {
	s := Scenario{
		BottleneckBps: 100e6,
		BufferBytes:   1 << 20,
		AccessBps:     30e6,
		Groups: []FlowGroup{
			{CC: "newreno", Count: 2, RTT: ms(20)},
			{CC: "cubic", Count: 1, RTT: ms(80), StartAt: Seconds(3)},
			{CC: "vegas", Count: 3, RTT: MinRTT},
		},
	}
	var rtts []sim.Time
	for _, g := range s.Groups {
		for k := 0; k < g.Count; k++ {
			rtts = append(rtts, g.RTT)
		}
	}
	fifo := func() netem.Qdisc { return qdisc.NewFIFO(1 << 20) }
	bell := declare(func(f netem.Fabric) []*netem.Node {
		d := netem.BuildDumbbell(f, netem.DumbbellConfig{
			FlowCount: len(rtts), BottleneckBps: s.BottleneckBps, BottleneckDelay: bottleneckDelay,
			RTTs: rtts, AccessBps: s.AccessBps,
			BottleneckQdisc: func(*netem.Device) netem.Qdisc { return fifo() },
			DefaultQdisc:    fifo,
		})
		return append(append([]*netem.Node(nil), d.Senders...), d.Receivers...)
	})
	checkSameDeclaration(t, "dumbbell", declareGraph(s.graph()), bell, false)
}

// TestDumbbellIsGraphRun: a dumbbell run is the graph run of its lowering
// plus what only a dumbbell measures — the same per-flow goodputs, JFI
// and event count, bit for bit, on a Cebinae bottleneck with a group that
// starts after the warmup edge.
func TestDumbbellIsGraphRun(t *testing.T) {
	s := Scenario{
		BottleneckBps: 50e6,
		BufferBytes:   1 << 20,
		Groups: []FlowGroup{
			{CC: "newreno", Count: 2, RTT: ms(20)},
			{CC: "cubic", Count: 1, RTT: ms(60), StartAt: Seconds(1)},
		},
		Duration: Seconds(3),
		Qdisc:    Cebinae,
		Seed:     5,
	}
	got, want := Run(s), RunGraph(s.graph())
	if got.JFI != want.JFI || got.Events != want.Events || len(got.Flows) != len(want.Flows) {
		t.Fatalf("dumbbell JFI %v events %d flows %d, graph JFI %v events %d flows %d",
			got.JFI, got.Events, len(got.Flows), want.JFI, want.Events, len(want.Flows))
	}
	for i, f := range got.Flows {
		if f.GoodputBps != want.Flows[i].GoodputBps {
			t.Errorf("flow %d: dumbbell goodput %v, graph %v", i, f.GoodputBps, want.Flows[i].GoodputBps)
		}
	}
}
