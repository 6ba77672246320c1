package netem_test

import (
	"fmt"
	"strings"
	"testing"

	"cebinae/internal/netem"
	"cebinae/internal/qdisc"
	"cebinae/internal/shard"
	"cebinae/internal/sim"
)

func fifo() netem.Qdisc { return qdisc.NewFIFO(1 << 20) }

// checkRoutes verifies a built topology's forwarding against a breadth-first
// search of its own: hosts hold no route table, every switch has a next hop
// toward every host, and that next hop — at a switch, and at every node of
// every host pair's hop-by-hop path — is the one a BFS from the destination
// gives when each node expands its links in declaration order (its devices
// in creation order) and only switches forward. Paths are therefore
// shortest, and of two equal-length ones the earlier-declared link's wins.
// Devices are matched to their far ends by name ("a->b"), so cut links
// count like local ones.
func checkRoutes(t *testing.T, hosts, switches []*netem.Node) {
	t.Helper()
	nodes := append(append([]*netem.Node(nil), hosts...), switches...)
	byName := make(map[string]*netem.Node, len(nodes))
	for _, n := range nodes {
		byName[n.Name] = n
	}
	// peer is every device's far end; back the far end's device toward
	// the near one, the k-th a->b device pairing with the k-th b->a.
	peer := map[*netem.Device]*netem.Node{}
	back := map[*netem.Device]*netem.Device{}
	for _, n := range nodes {
		seen := map[*netem.Node]int{}
		for _, d := range n.Devices() {
			far := byName[strings.TrimPrefix(d.Name(), n.Name+"->")]
			k := seen[far]
			seen[far]++
			peer[d] = far
			for _, r := range far.Devices() {
				if r.Name() == far.Name+"->"+n.Name {
					if k == 0 {
						back[d] = r
						break
					}
					k--
				}
			}
		}
	}
	isHost := map[*netem.Node]bool{}
	for _, h := range hosts {
		isHost[h] = true
		if n := h.RouteEntries(); n != 0 {
			t.Errorf("host %s holds %d route entries, want none", h.Name, n)
		}
	}
	// name tells parallel links apart by the device's place on its node.
	name := func(d *netem.Device) string {
		if d == nil {
			return "none"
		}
		for i, x := range d.Node().Devices() {
			if x == d {
				return fmt.Sprintf("%s#%d", d.Name(), i)
			}
		}
		return d.Name()
	}
	for _, dst := range hosts {
		want := map[*netem.Node]*netem.Device{}
		reached := map[*netem.Node]bool{dst: true}
		for queue := []*netem.Node{dst}; len(queue) > 0; queue = queue[1:] {
			u := queue[0]
			if isHost[u] && u != dst {
				continue
			}
			for _, d := range u.Devices() {
				if v := peer[d]; !reached[v] {
					reached[v], want[v] = true, back[d]
					queue = append(queue, v)
				}
			}
		}
		for _, sw := range switches {
			if got := sw.NextHop(dst.ID); got == nil || got != want[sw] {
				t.Errorf("%s toward %s: next hop %s, want %s", sw.Name, dst.Name, name(got), name(want[sw]))
			}
		}
		for _, src := range hosts {
			for n, hops := src, 0; n != dst; hops++ {
				d := n.NextHop(dst.ID)
				if d == nil || d != want[n] || hops > len(nodes) {
					t.Errorf("%s to %s: at %s next hop %s, want %s", src.Name, dst.Name, n.Name, name(d), name(want[n]))
					break
				}
				n = peer[d]
			}
		}
	}
}

// TestRoutesDumbbell: a dumbbell's hosts route by their one link alone.
func TestRoutesDumbbell(t *testing.T) {
	d := netem.BuildDumbbell(netem.NewNetwork(sim.NewEngine()), netem.DumbbellConfig{
		FlowCount:       3,
		BottleneckBps:   10e6,
		BottleneckDelay: sim.Time(1e6),
		RTTs:            []sim.Time{sim.Time(10e6), sim.Time(20e6), sim.Time(40e6)},
		BottleneckQdisc: func(*netem.Device) netem.Qdisc { return fifo() },
		DefaultQdisc:    fifo,
	})
	checkRoutes(t, append(append([]*netem.Node(nil), d.Senders...), d.Receivers...), []*netem.Node{d.SW1, d.SW2})
}

// TestRoutesParkingLotSharded: a 3-hop parking lot over a 2-shard
// auto-planned cluster, whose cut links route like local ones.
func TestRoutesParkingLotSharded(t *testing.T) {
	build := func(f netem.Fabric) *netem.ParkingLot {
		return netem.BuildParkingLotOn(f, netem.ParkingLotConfig{
			Hops: 3, LongFlows: 2, CrossPerHop: []int{1, 2, 1},
			BottleneckBps: 10e6, LinkDelay: sim.Time(1e6), AccessDelay: sim.Time(1e6),
			BottleneckQdisc: func(*netem.Device) netem.Qdisc { return fifo() },
			DefaultQdisc:    fifo,
		})
	}
	cl := shard.NewClusterWithPlan(shard.AutoPlan(2, func(f netem.Fabric) { build(f) }))
	pl := build(cl)
	if cl.Shards() != 2 || cl.Lookahead() == sim.MaxTime {
		t.Fatalf("want a 2-shard cluster with cut links, got %d shards, lookahead %v", cl.Shards(), cl.Lookahead())
	}
	hosts := append(append([]*netem.Node(nil), pl.LongSenders...), pl.LongReceivers...)
	for h := range pl.CrossSenders {
		hosts = append(append(hosts, pl.CrossSenders[h]...), pl.CrossReceivers[h]...)
	}
	checkRoutes(t, hosts, pl.Switches)
}

// TestRoutesTriangle: a switch triangle whose t0–t1 side is two parallel
// links, so t0 and t1 are joined by two equal-length paths; the first
// declared carries the traffic both ways.
func TestRoutesTriangle(t *testing.T) {
	topo := netem.NewTopo(netem.NewNetwork(sim.NewEngine()))
	link := netem.LinkConfig{RateBps: 1e9, Delay: 1000, QdiscFactory: fifo}
	t0, t1, t2 := topo.Switch("t0"), topo.Switch("t1"), topo.Switch("t2")
	first, firstBack := topo.Link(t0, t1, link)
	topo.Link(t0, t1, link)
	topo.Link(t1, t2, link)
	topo.Link(t2, t0, link)
	var hosts []*netem.Node
	for _, sw := range []*netem.Node{t0, t1, t2} {
		h := topo.Host("h" + sw.Name[1:])
		topo.Link(h, sw, link)
		hosts = append(hosts, h)
	}
	topo.Route()
	checkRoutes(t, hosts, []*netem.Node{t0, t1, t2})
	if t0.NextHop(hosts[1].ID) != first || t1.NextHop(hosts[0].ID) != firstBack {
		t.Fatal("the two t0–t1 links tie: the first declared must carry both directions")
	}
}
