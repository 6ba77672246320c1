// Ablation benchmarks: quantify the design choices DESIGN.md calls out —
// the §7 per-flow-⊤ extension and the virtual-round (vdT) catch-up bound.
// Each sub-benchmark reports the resulting fairness or loss metric via
// b.ReportMetric alongside the usual timing, so `go test -bench=Ablation`
// doubles as a design-sensitivity report.
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
