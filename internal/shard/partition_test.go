package shard

import (
	"fmt"
	"reflect"
	"testing"

	"cebinae/internal/netem"
	"cebinae/internal/qdisc"
	"cebinae/internal/sim"
)

// graphOf builds a Graph with n anonymous nodes and the given links.
func graphOf(n int, links ...netem.GraphLink) netem.Graph {
	g := netem.Graph{Nodes: make([]netem.GraphNode, n)}
	g.Links = links
	return g
}

// backboneGraph is the RunBackbone chain: src—sw1═core═sw2—dst with fast
// wide access links (200 µs, 40 Gbps) around a slow core (2 ms, 10 Gbps).
func backboneGraph() netem.Graph {
	return graphOf(4,
		netem.GraphLink{A: 0, B: 1, Delay: sim.Time(200e3), RateBps: 40e9},
		netem.GraphLink{A: 1, B: 2, Delay: sim.Time(2e6), RateBps: 10e9},
		netem.GraphLink{A: 2, B: 3, Delay: sim.Time(200e3), RateBps: 40e9},
	)
}

// checkPlanInvariants asserts the properties every plan must satisfy
// regardless of topology: whole-node assignment over dense shard indices
// ordered by smallest member, effective count within the request, and a
// Lookahead that equals the minimum delay over the actual cut links (so
// no cut link is ever narrower than the window the cluster will run).
func checkPlanInvariants(t *testing.T, g netem.Graph, requested int, p Plan) {
	t.Helper()
	if len(p.Assign) != len(g.Nodes) {
		t.Fatalf("plan assigns %d nodes, graph has %d", len(p.Assign), len(g.Nodes))
	}
	if p.Shards < 1 || p.Shards > requested {
		t.Fatalf("plan has %d shards, requested %d", p.Shards, requested)
	}
	// Dense indices, ordered by smallest member: walking nodes in creation
	// order, shard s must first appear only after shard s-1 has.
	next := 0
	for i, s := range p.Assign {
		if s < 0 || s >= p.Shards {
			t.Fatalf("node %d assigned to shard %d of %d", i, s, p.Shards)
		}
		if s == next {
			next++
		} else if s > next {
			t.Fatalf("node %d introduces shard %d before shard %d has appeared", i, s, next)
		}
	}
	if next != p.Shards && len(g.Nodes) > 0 {
		t.Fatalf("only %d of %d shards are populated", next, p.Shards)
	}
	// Lookahead is exactly the narrowest cut link; an uncut plan reports
	// MaxTime.
	minCut := sim.MaxTime
	for _, l := range g.Links {
		if p.Assign[l.A] != p.Assign[l.B] {
			if l.Delay <= 0 {
				t.Fatalf("plan cuts zero-delay link %d—%d", l.A, l.B)
			}
			if l.Delay < minCut {
				minCut = l.Delay
			}
		}
	}
	if p.Lookahead != minCut {
		t.Fatalf("plan lookahead %d, narrowest cut link %d", p.Lookahead, minCut)
	}
	if p.Shards == 1 && p.Lookahead != sim.MaxTime {
		t.Fatalf("single-shard plan has finite lookahead %d", p.Lookahead)
	}
}

// TestPlanGraphInvariants sweeps shard requests over several topology
// shapes and checks every structural plan property, plus determinism:
// the plan is a pure function of the graph.
func TestPlanGraphInvariants(t *testing.T) {
	star := graphOf(5,
		netem.GraphLink{A: 0, B: 1, Delay: sim.Time(1e6), RateBps: 1e9},
		netem.GraphLink{A: 0, B: 2, Delay: sim.Time(2e6), RateBps: 1e9},
		netem.GraphLink{A: 0, B: 3, Delay: sim.Time(3e6), RateBps: 1e9},
		netem.GraphLink{A: 0, B: 4, Delay: sim.Time(4e6), RateBps: 1e9},
	)
	ring := graphOf(6,
		netem.GraphLink{A: 0, B: 1, Delay: sim.Time(5e6), RateBps: 1e9},
		netem.GraphLink{A: 1, B: 2, Delay: sim.Time(5e6), RateBps: 1e9},
		netem.GraphLink{A: 2, B: 3, Delay: sim.Time(5e6), RateBps: 1e9},
		netem.GraphLink{A: 3, B: 4, Delay: sim.Time(5e6), RateBps: 1e9},
		netem.GraphLink{A: 4, B: 5, Delay: sim.Time(5e6), RateBps: 1e9},
		netem.GraphLink{A: 5, B: 0, Delay: sim.Time(5e6), RateBps: 1e9},
	)
	glued := graphOf(4,
		netem.GraphLink{A: 0, B: 1, Delay: 0, RateBps: 1e9},
		netem.GraphLink{A: 1, B: 2, Delay: 0, RateBps: 1e9},
		netem.GraphLink{A: 2, B: 3, Delay: sim.Time(1e6), RateBps: 1e9},
	)
	disconnected := graphOf(3)
	for name, g := range map[string]netem.Graph{
		"backbone": backboneGraph(), "star": star, "ring": ring,
		"glued": glued, "disconnected": disconnected, "empty": graphOf(0),
	} {
		for req := 1; req <= 6; req++ {
			p := PlanGraph(g, req)
			checkPlanInvariants(t, g, req, p)
			if again := PlanGraph(g, req); !reflect.DeepEqual(p, again) {
				t.Errorf("%s/k=%d: PlanGraph is not deterministic: %+v vs %+v", name, req, p, again)
			}
		}
	}
}

// TestPlanGraphMaximisesLookahead pins the threshold-contraction choice on
// the backbone shape: at two shards the planner must cut only the 2 ms
// core (the widest possible window, 10x the access delay), and only when
// pushed to three shards may it fall back to cutting the 200 µs access
// links — with src and dst folded together by load balancing.
func TestPlanGraphMaximisesLookahead(t *testing.T) {
	g := backboneGraph()

	p2 := PlanGraph(g, 2)
	if want := []int{0, 0, 1, 1}; !reflect.DeepEqual(p2.Assign, want) {
		t.Fatalf("k=2 assignment %v, want %v (cut the core only)", p2.Assign, want)
	}
	if p2.Lookahead != sim.Time(2e6) {
		t.Fatalf("k=2 lookahead %d, want the core's 2e6", p2.Lookahead)
	}

	p3 := PlanGraph(g, 3)
	if want := []int{0, 1, 2, 0}; !reflect.DeepEqual(p3.Assign, want) {
		t.Fatalf("k=3 assignment %v, want %v (src+dst share the lightest shard)", p3.Assign, want)
	}
	if p3.Lookahead != sim.Time(200e3) {
		t.Fatalf("k=3 lookahead %d, want the access links' 200e3", p3.Lookahead)
	}

	p4 := PlanGraph(g, 4)
	if want := []int{0, 1, 2, 3}; !reflect.DeepEqual(p4.Assign, want) {
		t.Fatalf("k=4 assignment %v, want %v", p4.Assign, want)
	}
}

// TestPlanGraphDegrades: requests the topology cannot honour clamp instead
// of failing — more shards than nodes, and zero-delay links that glue
// nodes into inseparable regions (a cut link needs positive delay).
func TestPlanGraphDegrades(t *testing.T) {
	pair := graphOf(2, netem.GraphLink{A: 0, B: 1, Delay: sim.Time(1e6), RateBps: 1e9})
	if p := PlanGraph(pair, 5); p.Shards != 2 {
		t.Fatalf("2-node graph at k=5 planned %d shards, want 2", p.Shards)
	}

	// Two zero-delay-glued triangles joined by one positive link: at most
	// two regions exist no matter the request.
	var glued netem.Graph
	glued.Nodes = make([]netem.GraphNode, 6)
	for _, tri := range [][3]int{{0, 1, 2}, {3, 4, 5}} {
		for i := 0; i < 3; i++ {
			glued.Links = append(glued.Links, netem.GraphLink{A: tri[i], B: tri[(i+1)%3], Delay: 0, RateBps: 1e9})
		}
	}
	glued.Links = append(glued.Links, netem.GraphLink{A: 2, B: 3, Delay: sim.Time(7e5), RateBps: 1e9})
	p := PlanGraph(glued, 4)
	if p.Shards != 2 {
		t.Fatalf("glued triangles at k=4 planned %d shards, want 2", p.Shards)
	}
	if want := []int{0, 0, 0, 1, 1, 1}; !reflect.DeepEqual(p.Assign, want) {
		t.Fatalf("glued triangles assignment %v, want %v", p.Assign, want)
	}
	if p.Lookahead != sim.Time(7e5) {
		t.Fatalf("glued triangles lookahead %d, want 7e5", p.Lookahead)
	}

	// All links zero-delay: nothing is cuttable; the plan collapses to one
	// shard rather than cutting a link the runner cannot window over.
	allZero := graphOf(3,
		netem.GraphLink{A: 0, B: 1, Delay: 0, RateBps: 1e9},
		netem.GraphLink{A: 1, B: 2, Delay: 0, RateBps: 1e9},
	)
	if p := PlanGraph(allZero, 3); p.Shards != 1 || p.Lookahead != sim.MaxTime {
		t.Fatalf("zero-delay graph planned %d shards, lookahead %d", p.Shards, p.Lookahead)
	}
}

// TestAutoPlanRecordsBuilder: AutoPlan's recording pass must capture
// exactly the topology the builder constructs — the plan it returns equals
// PlanGraph over the hand-written Graph — and a cluster built from the
// plan runs with the plan's lookahead.
func TestAutoPlanRecordsBuilder(t *testing.T) {
	build := func(f netem.Fabric) {
		a := f.NodeOn(0, "a")
		b := f.NodeOn(f.Shards()-1, "b")
		da, db := f.Connect(a, b, netem.LinkConfig{RateBps: 1e9, Delay: sim.Time(1e6)})
		da.SetQdisc(qdisc.NewFIFO(1 << 20))
		db.SetQdisc(qdisc.NewFIFO(1 << 20))
	}
	p := AutoPlan(2, build)
	want := PlanGraph(graphOf(2, netem.GraphLink{A: 0, B: 1, Delay: sim.Time(1e6), RateBps: 1e9}), 2)
	if !reflect.DeepEqual(p, want) {
		t.Fatalf("AutoPlan %+v, hand graph plans %+v", p, want)
	}
	if again := AutoPlan(2, build); !reflect.DeepEqual(p, again) {
		t.Fatalf("AutoPlan is not deterministic: %+v vs %+v", p, again)
	}

	cl := NewClusterWithPlan(p)
	build(cl)
	if w := cl.Lookahead(); w != p.Lookahead {
		t.Fatalf("cluster lookahead %d, plan promised %d", w, p.Lookahead)
	}
}

// TestDumbbell4AutoPlanFindsFourRegions pins the planner on a uniform
// 40 ms dumbbell of 12 flows: four regions, three sender groups cut at
// their ~20 ms access links plus the switches-and-receivers region, never
// the 0.1 ms bottleneck. The dumbbell is built inline in netem's
// construction order (switches, bottleneck, then each sender/receiver
// pair), since netem's own dumbbell builder takes a single network.
func TestDumbbell4AutoPlanFindsFourRegions(t *testing.T) {
	p := AutoPlan(4, func(f netem.Fabric) {
		sw1, sw2 := f.NodeOn(0, "sw1"), f.NodeOn(0, "sw2")
		f.Connect(sw1, sw2, netem.LinkConfig{RateBps: 100e6, Delay: sim.Time(0.1e6)})
		for i := 0; i < 12; i++ {
			s, r := f.NodeOn(0, fmt.Sprintf("s%d", i)), f.NodeOn(0, fmt.Sprintf("r%d", i))
			f.Connect(s, sw1, netem.LinkConfig{RateBps: 1e9, Delay: sim.Time(19.9e6)})
			f.Connect(sw2, r, netem.LinkConfig{RateBps: 1e9})
		}
	})
	if p.Shards != 4 {
		t.Fatalf("planner found %d regions, want 4", p.Shards)
	}
	if p.Lookahead < 1e7 {
		t.Fatalf("lookahead %d; cutting sender access links should buy ~2e7", p.Lookahead)
	}
}
