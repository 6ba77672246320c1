package experiments

import (
	"testing"

	"cebinae/internal/netem"
	"cebinae/internal/sim"
)

// TestFlowSetWindows pins the measurement-window rule where it is now
// stated once: an early starter and a flow starting exactly on the warmup
// edge measure from the edge, a late starter from a fifth of the way into
// its own lifetime (integer nanoseconds, truncating) — and the fast-forward
// set-up pins the warmup edge plus exactly one boundary per late starter,
// two flows with the same start included.
func TestFlowSetWindows(t *testing.T) {
	const (
		duration = sim.Time(10e9 + 3)
		warmup   = sim.Time(2e9)
		late     = sim.Time(5e9 + 1)
	)
	starts := []sim.Time{0, warmup, late, late}
	// What Run computed inline before the harness: (duration-late)/5
	// truncates 1000000000.4 ns.
	want := []sim.Time{warmup, warmup, late + 1e9, late + 1e9}

	s := Scenario{BottleneckBps: 100e6, BufferBytes: 1 << 20, Duration: duration, Seed: 1, MinRTO: Seconds(1), FastForward: true}
	for _, st := range starts {
		s.Groups = append(s.Groups, FlowGroup{CC: "newreno", Count: 1, RTT: ms(20), StartAt: st})
	}
	g := s.graph()
	eng := sim.NewEngine()
	w := netem.NewNetwork(eng)
	hosts, fwd := g.build(w)
	fs := g.attach(hosts, warmup)
	for i := range starts {
		if got := fs.measureFrom(i, warmup, duration); got != want[i] {
			t.Errorf("flow %d (start %d): measureFrom = %d, want %d", i, starts[i], got, want[i])
		}
	}

	// With no sampling and no Cebinae port, setupFastForward adds the
	// boundary pins and the controller's one sampling tick, nothing else.
	before := eng.Pending()
	c, forcedOff := setupFastForward(s, w, fwd[0], fs, warmup)
	if c == nil || forcedOff {
		t.Fatalf("fast-forward not set up: controller %v, forcedOff %v", c, forcedOff)
	}
	if pins := eng.Pending() - before - 1; pins != 3 {
		t.Errorf("pinned %d boundaries, want 3 (the warmup edge and one per late starter)", pins)
	}
}
