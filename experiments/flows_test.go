package experiments

import (
	"testing"

	"cebinae/internal/netem"
	"cebinae/internal/qdisc"
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

	fifo := func() netem.Qdisc { return qdisc.NewFIFO(1 << 20) }
	eng := sim.NewEngine()
	d := netem.BuildDumbbell(netem.NewNetwork(eng), netem.DumbbellConfig{
		FlowCount:       len(starts),
		BottleneckBps:   100e6,
		BottleneckDelay: sim.Duration(100e3),
		RTTs:            []sim.Time{ms(20)},
		BottleneckQdisc: func(*netem.Device) netem.Qdisc { return fifo() },
		DefaultQdisc:    fifo,
	})
	ends := make([]flowEnd, len(starts))
	for i, st := range starts {
		ends[i] = flowEnd{d.Senders[i], d.Receivers[i], "newreno", st}
	}
	fs := attachFlows(ends, 1, Seconds(1))
	for i := range starts {
		if got := fs.measureFrom(i, warmup, duration); got != want[i] {
			t.Errorf("flow %d (start %d): measureFrom = %d, want %d", i, starts[i], got, want[i])
		}
	}

	// With no sampling and no Cebinae port, setupFastForward adds the
	// boundary pins and the controller's one sampling tick, nothing else.
	before := eng.Pending()
	c, forcedOff := setupFastForward(Scenario{FastForward: true, Duration: duration}, d, nil, fs, warmup)
	if c == nil || forcedOff {
		t.Fatalf("fast-forward not set up: controller %v, forcedOff %v", c, forcedOff)
	}
	if pins := eng.Pending() - before - 1; pins != 3 {
		t.Errorf("pinned %d boundaries, want 3 (the warmup edge and one per late starter)", pins)
	}
}
