package netem

import (
	"testing"

	"cebinae/internal/sim"
)

// TestRecorderCapturesGraph: the Recorder must report the caller-chosen
// shard count, capture every NodeOn/Connect in construction order with
// names and link parameters intact, and still delegate to the inner
// fabric so the builder's wiring (routes, qdiscs) works during the
// recording pass.
func TestRecorderCapturesGraph(t *testing.T) {
	inner := NewNetwork(sim.NewEngine())
	r := NewRecorder(inner, 3)
	if r.Shards() != 3 {
		t.Fatalf("recorder reports %d shards, want 3", r.Shards())
	}

	a := r.NodeOn(0, "a")
	b := r.NodeOn(r.Shards()-1, "b")
	da, db := r.Connect(a, b, LinkConfig{RateBps: 1e9, Delay: sim.Time(4e6)})
	if da == nil || db == nil {
		t.Fatal("recorder did not delegate Connect to the inner fabric")
	}
	a.AddRoute(b.ID, da) // the real builder wires routes; delegation must support it

	g := r.Graph
	if len(g.Nodes) != 2 || len(g.Links) != 1 {
		t.Fatalf("recorded %d nodes / %d links, want 2 / 1", len(g.Nodes), len(g.Links))
	}
	if g.Nodes[0].Name != "a" || g.Nodes[1].Name != "b" {
		t.Fatalf("recorded nodes %+v", g.Nodes)
	}
	l := g.Links[0]
	if l.A != 0 || l.B != 1 || l.Delay != sim.Time(4e6) || l.RateBps != 1e9 {
		t.Fatalf("recorded link %+v", l)
	}
}
