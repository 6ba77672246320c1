// Ablation benchmarks: quantify the design choices DESIGN.md calls out —
// the §7 per-flow-⊤ extension, LBF ECN marking, and the virtual-round
// (vdT) catch-up bound. Each sub-benchmark reports the resulting fairness
// or loss metric via b.ReportMetric alongside the usual timing, so
// `go test -bench=Ablation` doubles as a design-sensitivity report.
package cebinae_test

import (
	"testing"

	"cebinae"
	"cebinae/experiments"
)

// BenchmarkAblationPerFlowTop compares aggregate-⊤ against per-flow-⊤ on a
// both-flows-bottlenecked RTT pair (the ext-perflow section's two runs).
func BenchmarkAblationPerFlowTop(b *testing.B) {
	runs := experiments.ExtPerFlowScenarios(benchScale)
	for i := 0; i < b.N; i++ {
		b.ReportMetric(experiments.Run(runs[0]).JFI, "jfi-aggregate")
		b.ReportMetric(experiments.Run(runs[1]).JFI, "jfi-perflow")
	}
}

// BenchmarkAblationECNMarking compares a DCTCP flow against NewReno through
// Cebinae with LBF CE-marking on vs off. With marking on, the DCTCP flow
// receives the pre-loss signal and keeps a better share.
func BenchmarkAblationECNMarking(b *testing.B) {
	run := func(mark bool) (dctcpShare float64) {
		p := experiments.DefaultCebinaeParams(experiments.Scenario{
			BottleneckBps: 50e6, BufferBytes: 420 * 1500,
			Groups: []experiments.FlowGroup{{CC: "newreno", Count: 1, RTT: experiments.Millis(20)}},
		})
		p.MarkECN = mark
		// Manual wiring: one DCTCP flow (ECN-capable by its CC) + one NewReno flow.
		eng := cebinae.NewEngine()
		net := cebinae.NewNetwork(eng)
		d := cebinae.BuildDumbbell(net, cebinae.DumbbellConfig{
			FlowCount:       2,
			BottleneckBps:   50e6,
			BottleneckDelay: cebinae.Millis(0.1),
			RTTs:            []cebinae.Time{cebinae.Millis(20)},
			BottleneckQdisc: func(dev *cebinae.Device) cebinae.Queue {
				q := cebinae.NewQdisc(eng, 50e6, 420*1500, p)
				q.OnDrain = dev.Kick
				return q
			},
			DefaultQdisc: func() cebinae.Queue { return cebinae.NewFIFO(16 << 20) },
		})
		dur := cebinae.Seconds(10)
		meters := make([]*cebinae.FlowMeter, 2)
		for i, name := range []string{"dctcp", "newreno"} {
			key := cebinae.FlowKey{Src: d.Senders[i].ID, Dst: d.Receivers[i].ID, SrcPort: 1, DstPort: uint16(50 + i), Proto: 6}
			cc, _ := cebinae.NewCC(name)
			cebinae.NewConn(eng, d.Senders[i], cebinae.ConnConfig{Key: key, CC: cc, MinRTO: cebinae.Seconds(1)})
			recv := cebinae.NewReceiver(eng, d.Receivers[i], cebinae.ReceiverConfig{Key: key})
			m := &cebinae.FlowMeter{}
			m.Mark(dur/5, dur)
			recv.GoodputAt = m.Record
			meters[i] = m
		}
		eng.Run(dur)
		dc := meters[0].RateOver(dur/5, dur)
		nr := meters[1].RateOver(dur/5, dur)
		if dc+nr == 0 {
			return 0
		}
		return dc / (dc + nr)
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(true), "dctcp-share-marked")
		b.ReportMetric(run(false), "dctcp-share-unmarked")
	}
}

// BenchmarkAblationVdT compares a tight virtual round (strong catch-up
// bounding) against a loose one under a bursty on-off source, reporting the
// LBF drop counts. A looser vdT admits bigger catch-up bursts.
func BenchmarkAblationVdT(b *testing.B) {
	run := func(vdt cebinae.Time) uint64 {
		const rate = 50e6
		buf := 128 * 1500
		p := cebinae.DefaultParams(rate, buf, cebinae.Millis(20))
		p.VDT = vdt
		eng := cebinae.NewEngine()
		net := cebinae.NewNetwork(eng)
		a, bb := net.NewNode("a"), net.NewNode("b")
		dev, rev := net.Connect(a, bb, cebinae.LinkConfig{RateBps: rate, Delay: cebinae.Millis(1)})
		q := cebinae.NewQdisc(eng, rate, buf, p)
		q.OnDrain = dev.Kick
		dev.SetQdisc(q)
		rev.SetQdisc(cebinae.NewFIFO(1 << 20))
		a.AddRoute(bb.ID, dev)

		key := cebinae.FlowKey{Src: a.ID, Dst: bb.ID, SrcPort: 1, DstPort: 2, Proto: 17}
		src := cebinae.NewCBRSource(eng, a, key, 1.2*rate, 0) // blind overload
		eng.Run(cebinae.Seconds(5))
		_ = src
		return q.Stats.Delayed
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(float64(run(1<<14)), "delayed-tight")
		b.ReportMetric(float64(run(1<<19)), "delayed-loose")
	}
}
