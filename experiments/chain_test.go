package experiments

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"cebinae/internal/netem"
	"cebinae/internal/qdisc"
	"cebinae/internal/sim"
)

// TestChainIsGraphDeclaration: the graph the chain lowers to declares the
// topology netem.BuildParkingLotOn builds — the same nodes (IDs and
// kinds), the same links in creation order (endpoints, rate, delay) and
// the same next hop at every switch toward every host — so every flow key
// and Cebinae cache hash the node IDs fix is the parking lot's.
func TestChainIsGraphDeclaration(t *testing.T) {
	cfg := CanonicalChain(Cebinae, Seconds(2), 1)
	fifo := func() netem.Qdisc { return qdisc.NewFIFO(1 << 20) }
	type declared struct {
		nodes []*netem.Node
		links []netem.GraphLink
		host  map[*netem.Node]bool
	}
	// declare records one build, which returns its hosts.
	declare := func(build func(netem.Fabric) []*netem.Node) declared {
		w := netem.NewNetwork(sim.NewEngine())
		rec := netem.NewRecorder(w, 1)
		d := declared{host: map[*netem.Node]bool{}}
		for _, h := range build(rec) {
			d.host[h] = true
		}
		d.nodes, d.links = w.Nodes(), rec.Graph.Links
		return d
	}
	lot := declare(func(f netem.Fabric) []*netem.Node {
		pl := netem.BuildParkingLotOn(f, netem.ParkingLotConfig{
			Hops: cfg.Hops, LongFlows: cfg.LongFlows, CrossPerHop: cfg.CrossPerHop,
			BottleneckBps: cfg.BottleneckBps, LinkDelay: cfg.LinkDelay, AccessDelay: cfg.AccessDelay,
			BottleneckQdisc: func(*netem.Device) netem.Qdisc { return fifo() },
			DefaultQdisc:    fifo,
		})
		hosts := append(append([]*netem.Node(nil), pl.LongSenders...), pl.LongReceivers...)
		for h := range pl.CrossSenders {
			hosts = append(append(hosts, pl.CrossSenders[h]...), pl.CrossReceivers[h]...)
		}
		return hosts
	})
	g := cfg.graph()
	graph := declare(func(f netem.Fabric) []*netem.Node {
		var hosts []*netem.Node
		for _, hs := range g.build(f) {
			hosts = append(hosts, hs...)
		}
		return hosts
	})

	if len(graph.nodes) != len(lot.nodes) {
		t.Fatalf("graph declares %d nodes, the parking lot %d", len(graph.nodes), len(lot.nodes))
	}
	for i, n := range lot.nodes {
		if m := graph.nodes[i]; m.ID != n.ID || graph.host[m] != lot.host[n] {
			t.Errorf("node %d: graph has %s (ID %d, host %t), the parking lot %s (ID %d, host %t)",
				i, m.Name, m.ID, graph.host[m], n.Name, n.ID, lot.host[n])
		}
	}
	if !reflect.DeepEqual(graph.links, lot.links) {
		t.Errorf("links differ:\n graph %+v\n   lot %+v", graph.links, lot.links)
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
	for i, sw := range lot.nodes {
		if lot.host[sw] {
			continue
		}
		for j, dst := range lot.nodes {
			if !lot.host[dst] {
				continue
			}
			if got, want := port(graph.nodes[i], graph.nodes[j]), port(sw, dst); got != want || want < 0 {
				t.Errorf("switch %s toward host %d: graph port %d, parking lot port %d", sw.Name, dst.ID, got, want)
			}
		}
	}
}

// TestChainWarmupIsGraphWarmup: the chain measured from Duration/5 before
// it ran on the graph runner, which measures from warmupEdge(Duration,
// 0.2). The two agree for any horizon below 2⁵¹ ns; this pins them on
// every horizon a chain ships with — the spec file and the tests (2 s),
// the benchmark's chain_sharded_2 at its test scale and at scale 1, and
// Fig. 11 at every scale a tool runs it.
func TestChainWarmupIsGraphWarmup(t *testing.T) {
	horizons := []SimTime{Seconds(2), Seconds(60 * 0.1), Seconds(60)}
	for _, s := range []Scale{0.02, Quick, Medium, Full} {
		for _, c := range Fig11Chains(s) {
			horizons = append(horizons, c.Duration)
		}
	}
	for _, d := range horizons {
		if got, want := warmupEdge(d, 0.2), d/5; got != want {
			t.Errorf("horizon %d ns: graph warmup edge %d, chain's %d", d, got, want)
		}
	}
}

// TestChainReportGolden pins the parking lot's whole Report(), event count
// included, under FIFO and Cebinae on one and two engines, against
// testdata/chain_report.txt, recorded when the chain still had its own run
// path. Every other golden masks events=, so this is the one that sees an
// event drift in the multi-hop runner.
func TestChainReportGolden(t *testing.T) {
	var b strings.Builder
	for _, kind := range []QdiscKind{FIFO, Cebinae} {
		for _, shards := range []int{1, 2} {
			r := RunChain(CanonicalChain(kind, Seconds(2), shards))
			fmt.Fprintf(&b, "%s shards=%d events=%d report=%x\n", kind, shards, r.Events, sha256.Sum256([]byte(r.Report())))
		}
	}
	checkGolden(t, "chain_report.txt", b.String())
}
