package experiments

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"cebinae/internal/netem"
	"cebinae/internal/qdisc"
)

// TestChainIsGraphDeclaration: the graph the chain lowers to declares the
// topology netem.BuildParkingLotOn builds — the same nodes (IDs and
// kinds), the same links in creation order (endpoints, rate, delay) and
// the same next hop at every switch toward every host — so every flow key
// and Cebinae cache hash the node IDs fix is the parking lot's.
func TestChainIsGraphDeclaration(t *testing.T) {
	cfg := CanonicalChain(Cebinae, Seconds(2), 1)
	fifo := func() netem.Qdisc { return qdisc.NewFIFO(1 << 20) }
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
	graph := declareGraph(cfg.graph())
	checkSameDeclaration(t, "parking lot", graph, lot, true)
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
