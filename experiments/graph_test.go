package experiments

import (
	"strings"
	"testing"
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
