package core_test

import (
	"fmt"
	"testing"

	"cebinae/internal/core"
	"cebinae/internal/metrics"
	"cebinae/internal/netem"
	"cebinae/internal/packet"
	"cebinae/internal/qdisc"
	"cebinae/internal/sim"
	"cebinae/internal/tcp"
)

// runScenario runs a dumbbell with the given CCAs/RTTs under either Cebinae
// or FIFO at the bottleneck, returning per-flow goodput rates (bytes/sec)
// and the bottleneck qdisc (nil unless Cebinae).
func runScenario(t testing.TB, cebinae bool, ccs []string, rtts []sim.Time, rateBps float64, bufBytes int, dur sim.Time) ([]float64, *core.Qdisc) {
	t.Helper()
	eng := sim.NewEngine()
	w := netem.NewNetwork(eng)
	var cq *core.Qdisc
	maxRTT := rtts[0]
	for _, r := range rtts {
		if r > maxRTT {
			maxRTT = r
		}
	}
	d := netem.BuildDumbbell(w, netem.DumbbellConfig{
		FlowCount:       len(ccs),
		BottleneckBps:   rateBps,
		BottleneckDelay: sim.Duration(100e3),
		RTTs:            rtts,
		BottleneckQdisc: func(dev *netem.Device) netem.Qdisc {
			if cebinae {
				cq = core.New(eng, rateBps, bufBytes, core.DefaultParams(rateBps, bufBytes, maxRTT))
				cq.OnDrain = dev.Kick
				return cq
			}
			return qdisc.NewFIFO(bufBytes)
		},
		DefaultQdisc: func() netem.Qdisc { return qdisc.NewFIFO(16 << 20) },
	})
	meters := make([]*metrics.FlowMeter, len(ccs))
	for i, name := range ccs {
		cc, ok := tcp.NewCC(name)
		if !ok {
			t.Fatalf("unknown CC %q", name)
		}
		key := packet.FlowKey{Src: d.Senders[i].ID, Dst: d.Receivers[i].ID, SrcPort: 1000, DstPort: uint16(5000 + i), Proto: packet.ProtoTCP}
		tcp.NewConn(eng, d.Senders[i], tcp.Config{Key: key, CC: cc})
		recv := tcp.NewReceiver(eng, d.Receivers[i], tcp.ReceiverConfig{Key: key})
		m := &metrics.FlowMeter{}
		m.Mark(dur*2/3, dur)
		recv.GoodputAt = m.Record
		meters[i] = m
	}
	eng.Run(dur)
	rates := make([]float64, len(ccs))
	for i, m := range meters {
		rates[i] = m.RateOver(dur*2/3, dur) // converged tail
	}
	return rates, cq
}

// TestCebinaePassesTrafficWhenUnsaturated: a flow whose demand stays below
// the saturation threshold must pass through Cebinae untouched — no LBF
// drops, no phase change to saturated.
func TestCebinaePassesTrafficWhenUnsaturated(t *testing.T) {
	eng := sim.NewEngine()
	w := netem.NewNetwork(eng)
	rate := 50e6
	buf := 128 * 1500
	var cq *core.Qdisc
	d := netem.BuildDumbbell(w, netem.DumbbellConfig{
		FlowCount:       1,
		BottleneckBps:   rate,
		BottleneckDelay: sim.Duration(100e3),
		RTTs:            []sim.Time{sim.Duration(20e6)},
		BottleneckQdisc: func(dev *netem.Device) netem.Qdisc {
			cq = core.New(eng, rate, buf, core.DefaultParams(rate, buf, sim.Duration(20e6)))
			cq.OnDrain = dev.Kick
			return cq
		},
		DefaultQdisc: func() netem.Qdisc { return qdisc.NewFIFO(16 << 20) },
	})
	key := packet.FlowKey{Src: d.Senders[0].ID, Dst: d.Receivers[0].ID, SrcPort: 1, DstPort: 2, Proto: packet.ProtoTCP}
	// Cap the window so demand tops out at roughly half the link.
	tcp.NewConn(eng, d.Senders[0], tcp.Config{Key: key, MaxCwndBytes: 0.5 * rate / 8 * 0.0204})
	recv := tcp.NewReceiver(eng, d.Receivers[0], tcp.ReceiverConfig{Key: key})
	m := &metrics.FlowMeter{}
	recv.GoodputAt = m.Record
	dur := sim.Duration(10e9)
	m.Mark(dur/5, dur)
	eng.Run(dur)

	got := m.RateOver(dur/5, dur) * 8
	if got < 0.4*rate || got > 0.6*rate {
		t.Fatalf("capped flow got %.2f Mbps, want ≈ 25", got/1e6)
	}
	if cq.Stats.LBFDrops != 0 || cq.Stats.BufferDrops != 0 {
		t.Fatalf("unsaturated flow suffered drops: %+v", cq.Stats)
	}
	if cq.Saturated() {
		t.Fatalf("port wrongly classified saturated")
	}
}

// TestCebinaeHomogeneousEfficiency: paper Example (1) — identical flows on
// one bottleneck; Cebinae taxes everyone but utilisation must stay high
// (fluctuating around capacity, never collapsing).
func TestCebinaeHomogeneousEfficiency(t *testing.T) {
	ccs := make([]string, 9)
	for i := range ccs {
		ccs[i] = "newreno"
	}
	rates, cq := runScenario(t, true, ccs, []sim.Time{sim.Duration(40e6)}, 100e6, 420*1500, sim.Duration(30e9))
	var sum float64
	for _, r := range rates {
		sum += r * 8
	}
	t.Logf("aggregate=%.2f Mbps rates=%v JFI=%.3f stats=%+v", sum/1e6, mbps(rates), metrics.JFI(rates), cq.Stats)
	if sum < 0.80*100e6 {
		t.Fatalf("homogeneous aggregate %.2f Mbps too low under Cebinae", sum/1e6)
	}
	if jfi := metrics.JFI(rates); jfi < 0.9 {
		t.Fatalf("homogeneous JFI %.3f too low", jfi)
	}
}

// TestCebinaeImprovesVegasVsNewReno reproduces the Fig. 7 effect in
// miniature: Vegas flows starved by a NewReno flow under FIFO recover a
// much fairer share under Cebinae.
func TestCebinaeImprovesVegasVsNewReno(t *testing.T) {
	ccs := []string{"vegas", "vegas", "vegas", "vegas", "newreno"}
	rtts := []sim.Time{sim.Duration(40e6)}
	// Convergence takes tens of seconds (the paper runs 100 s); measure the
	// converged tail of a 60 s run.
	dur := sim.Duration(60e9)

	fifoRates, _ := runScenario(t, false, ccs, rtts, 50e6, 420*1500, dur)
	cebRates, cq := runScenario(t, true, ccs, rtts, 50e6, 420*1500, dur)

	fifoJFI := metrics.JFI(fifoRates)
	cebJFI := metrics.JFI(cebRates)
	t.Logf("FIFO rates=%v JFI=%.3f", mbps(fifoRates), fifoJFI)
	t.Logf("Cebinae rates=%v JFI=%.3f stats=%+v", mbps(cebRates), cebJFI, cq.Stats)
	if cebJFI < fifoJFI {
		t.Fatalf("Cebinae JFI %.3f did not improve on FIFO %.3f", cebJFI, fifoJFI)
	}
	if cebJFI < 0.8 {
		t.Fatalf("Cebinae JFI %.3f too low", cebJFI)
	}
}

func mbps(rates []float64) []string {
	out := make([]string, len(rates))
	for i, r := range rates {
		out[i] = fmt.Sprintf("%.2f", r*8/1e6)
	}
	return out
}
