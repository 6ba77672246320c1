package core_test

import (
	"testing"

	"cebinae/internal/core"
	"cebinae/internal/metrics"
	"cebinae/internal/netem"
	"cebinae/internal/packet"
	"cebinae/internal/qdisc"
	"cebinae/internal/sim"
	"cebinae/internal/tcp"
)

// runRTTPair runs two NewReno flows (10 ms vs 80 ms RTT) through Cebinae
// with a wide δf so both are classified ⊤, returning their tail goodputs.
func runRTTPair(t *testing.T, perFlow bool) (short, long float64) {
	t.Helper()
	eng := sim.NewEngine()
	w := netem.NewNetwork(eng)
	rate := 50e6
	buf := 420 * 1500
	params := core.DefaultParams(rate, buf, sim.Duration(80e6))
	params.DeltaFlow = 0.9 // both flows land in ⊤
	params.PerFlowTop = perFlow
	d := netem.BuildDumbbell(w, netem.DumbbellConfig{
		FlowCount:       2,
		BottleneckBps:   rate,
		BottleneckDelay: sim.Duration(100e3),
		RTTs:            []sim.Time{sim.Duration(10e6), sim.Duration(80e6)},
		BottleneckQdisc: func(dev *netem.Device) netem.Qdisc {
			cq := core.New(eng, rate, buf, params)
			cq.OnDrain = dev.Kick
			return cq
		},
		DefaultQdisc: func() netem.Qdisc { return qdisc.NewFIFO(16 << 20) },
	})
	meters := make([]*metrics.FlowMeter, 2)
	for i := 0; i < 2; i++ {
		key := packet.FlowKey{Src: d.Senders[i].ID, Dst: d.Receivers[i].ID, SrcPort: 1, DstPort: uint16(10 + i), Proto: packet.ProtoTCP}
		tcp.NewConn(eng, d.Senders[i], tcp.Config{Key: key})
		recv := tcp.NewReceiver(eng, d.Receivers[i], tcp.ReceiverConfig{Key: key})
		m := &metrics.FlowMeter{}
		recv.GoodputAt = m.Record
		meters[i] = m
	}
	dur := sim.Duration(60e9)
	for _, m := range meters {
		m.Mark(dur/2, dur)
	}
	eng.Run(dur)
	return meters[0].RateOver(dur/2, dur) * 8, meters[1].RateOver(dur/2, dur) * 8
}

// TestPerFlowTopWorks: the extension must run correctly end to end and
// keep utilisation and fairness at least in the ballpark of the aggregate
// mode for a both-flows-⊤ workload.
func TestPerFlowTopWorks(t *testing.T) {
	s, l := runRTTPair(t, true)
	total := s + l
	if total < 0.5*50e6 {
		t.Fatalf("per-flow mode collapsed utilisation: %.1f Mbps", total/1e6)
	}
	jfi := metrics.JFI([]float64{s, l})
	t.Logf("per-flow: short=%.1f long=%.1f JFI=%.3f", s/1e6, l/1e6, jfi)
	if jfi < 0.55 {
		t.Fatalf("per-flow ⊤ isolation JFI %.3f too low", jfi)
	}
}

// TestPerFlowVsAggregateAblation: with both flows ⊤, the per-flow extension
// should isolate them from each other at least as well as the aggregate
// group (within tolerance — this is the §7 hypothesis, checked as a
// regression ablation).
func TestPerFlowVsAggregateAblation(t *testing.T) {
	sAgg, lAgg := runRTTPair(t, false)
	sPF, lPF := runRTTPair(t, true)
	jfiAgg := metrics.JFI([]float64{sAgg, lAgg})
	jfiPF := metrics.JFI([]float64{sPF, lPF})
	t.Logf("aggregate: short=%.1f long=%.1f JFI=%.3f | per-flow: short=%.1f long=%.1f JFI=%.3f",
		sAgg/1e6, lAgg/1e6, jfiAgg, sPF/1e6, lPF/1e6, jfiPF)
	if jfiPF < jfiAgg-0.15 {
		t.Fatalf("per-flow mode markedly worse than aggregate: %.3f vs %.3f", jfiPF, jfiAgg)
	}
}
