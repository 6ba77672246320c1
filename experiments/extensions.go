package experiments

import (
	"fmt"
	"strings"

	"cebinae/internal/app"
	"cebinae/internal/core"
	"cebinae/internal/metrics"
	"cebinae/internal/netem"
	"cebinae/internal/packet"
	"cebinae/internal/sim"
	"cebinae/internal/tcp"
)

// This file holds experiments beyond the paper's evaluation, exercising the
// repository's extensions: short-flow protection under churn, blind-UDP
// containment, the §7 per-flow-⊤ isolation mode and the §3.2 strawman.
// They are clearly labelled as extensions in reports.

// extBps is the bottleneck rate of the churn and blind-UDP extensions.
const extBps = 100e6

// extDumbbell builds those two extensions' dumbbell on eng: n host pairs
// at 40 ms behind an extBps bottleneck with an 850-packet buffer under
// kind. It returns each pair's sender and receiver.
func extDumbbell(eng *sim.Engine, kind QdiscKind, n int) (snd, rcv []*netem.Node) {
	g := Scenario{BottleneckBps: extBps, BufferBytes: 850 * 1500, Qdisc: kind, Groups: []FlowGroup{{Count: n, RTT: ms(40)}}}.graph()
	hosts, _ := g.build(netem.NewNetwork(eng))
	for _, f := range g.Flows {
		snd, rcv = append(snd, hosts[f.From][0]), append(rcv, hosts[f.To][0])
	}
	return snd, rcv
}

// ---------------------------------------------------------------------------
// Extension 1 — short-flow completion times under churn: one long-lived
// aggressive flow (classified ⊤) shares a bottleneck with a Poisson stream
// of short transfers. Cebinae's headroom for ⊥ flows should cut the short
// flows' completion times relative to FIFO.
// ---------------------------------------------------------------------------

// ExtChurnResult compares short-transfer completion times.
type ExtChurnResult struct {
	Kind        QdiscKind
	Started     uint64
	Completed   uint64
	MeanFCTms   float64
	P95FCTms    float64
	LongGoodput float64 // bits/sec of the long-lived flow
}

// ExtChurn runs the scenario under one discipline.
func ExtChurn(kind QdiscKind, scale Scale) ExtChurnResult {
	dur := horizon(scale, 100e9, Seconds(10))
	eng := sim.NewEngine()
	// Host pair 0 carries the long flow, pair 1 the churn.
	snd, rcv := extDumbbell(eng, kind, 2)

	// Long-lived aggressive flow (Cubic).
	longKey := packet.FlowKey{Src: snd[0].ID, Dst: rcv[0].ID, SrcPort: 1, DstPort: 2, Proto: packet.ProtoTCP}
	cc, _ := tcp.NewCC("cubic")
	tcp.NewConn(eng, snd[0], tcp.Config{Key: longKey, CC: cc, MinRTO: defaultMinRTO})
	longRecv := tcp.NewReceiver(eng, rcv[0], tcp.ReceiverConfig{Key: longKey})
	longMeter := &metrics.FlowMeter{}
	longMeter.Mark(dur/5, dur)
	longRecv.GoodputAt = longMeter.Record

	// Short-transfer churn: ~40 arrivals/s of mean 200 KB ⇒ ≈64 Mbps of
	// offered short traffic.
	churn := app.NewChurn(eng, snd[1], rcv[1], app.ChurnConfig{
		ArrivalsPerSec: 40,
		MeanFlowBytes:  200 << 10,
		CC:             "newreno",
		BasePort:       1000,
		Seed:           11,
		MinRTO:         defaultMinRTO,
	})

	eng.Run(dur)

	res := ExtChurnResult{Kind: kind, Started: churn.Started, Completed: churn.Completed}
	if len(churn.CompletionTimes) > 0 {
		fcts := make([]float64, len(churn.CompletionTimes))
		for i, ct := range churn.CompletionTimes {
			fcts[i] = float64(ct) / 1e6 // ms
		}
		res.MeanFCTms = metrics.Mean(fcts)
		res.P95FCTms = metrics.Percentile(fcts, 95)
	}
	res.LongGoodput = longMeter.RateOver(dur/5, dur) * 8
	return res
}

// RenderExtChurn prints the comparison.
func RenderExtChurn(results []ExtChurnResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension — short-flow FCT under churn vs 1 long Cubic flow, 100 Mbps\n")
	fmt.Fprintf(&b, "%8s | %7s %9s | %11s %11s | %12s\n", "qdisc", "started", "completed", "meanFCT[ms]", "p95FCT[ms]", "long[Mbps]")
	for _, r := range results {
		fmt.Fprintf(&b, "%8s | %7d %9d | %11.1f %11.1f | %12.2f\n",
			r.Kind, r.Started, r.Completed, r.MeanFCTms, r.P95FCTms, r.LongGoodput/1e6)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Extension 2 — blind-UDP containment: a non-congestion-controlled CBR
// source at 80% of capacity against TCP flows. The paper notes blind flows
// need admission control, but Cebinae should still tax the blaster and
// preserve more TCP goodput than FIFO.
// ---------------------------------------------------------------------------

// ExtBlindUDPResult compares TCP aggregate goodput with a UDP blaster.
type ExtBlindUDPResult struct {
	Kind         QdiscKind
	UDPDelivered float64 // bits/sec
	TCPAggregate float64 // bits/sec
	TCPFlowJFI   float64
}

// ExtBlindUDP runs the scenario under one discipline.
func ExtBlindUDP(kind QdiscKind, scale Scale) ExtBlindUDPResult {
	dur := horizon(scale, 100e9, Seconds(10))
	eng := sim.NewEngine()
	nTCP := 8
	snd, rcv := extDumbbell(eng, kind, nTCP+1)

	// UDP blaster on pair 0.
	udpKey := packet.FlowKey{Src: snd[0].ID, Dst: rcv[0].ID, SrcPort: 9, DstPort: 9, Proto: packet.ProtoUDP}
	udpMeter := &metrics.FlowMeter{}
	udpMeter.Mark(dur/5, dur)
	rcv[0].Register(udpKey, meterSink{udpMeter, eng})
	app.NewCBR(eng, snd[0], udpKey, 0.8*extBps, 0)

	// TCP flows on pairs 1..n.
	meters := make([]*metrics.FlowMeter, nTCP)
	for i := 0; i < nTCP; i++ {
		key := packet.FlowKey{Src: snd[i+1].ID, Dst: rcv[i+1].ID, SrcPort: uint16(100 + i), DstPort: uint16(200 + i), Proto: packet.ProtoTCP}
		cc, _ := tcp.NewCC("newreno")
		tcp.NewConn(eng, snd[i+1], tcp.Config{Key: key, CC: cc, Seed: uint64(i), MinRTO: defaultMinRTO})
		recv := tcp.NewReceiver(eng, rcv[i+1], tcp.ReceiverConfig{Key: key})
		m := &metrics.FlowMeter{}
		m.Mark(dur/5, dur)
		recv.GoodputAt = m.Record
		meters[i] = m
	}

	eng.Run(dur)

	res := ExtBlindUDPResult{Kind: kind}
	res.UDPDelivered = udpMeter.RateOver(dur/5, dur) * 8
	rates := make([]float64, nTCP)
	for i, m := range meters {
		rates[i] = m.RateOver(dur/5, dur)
		res.TCPAggregate += rates[i] * 8
	}
	res.TCPFlowJFI = metrics.JFI(rates)
	return res
}

// meterSink counts delivered payload bytes into a FlowMeter.
type meterSink struct {
	m   *metrics.FlowMeter
	eng *sim.Engine
}

func (s meterSink) Deliver(p *packet.Packet) {
	s.m.Record(s.eng.Now(), int64(p.PayloadSize))
}

// RenderExtBlindUDP prints the comparison.
func RenderExtBlindUDP(results []ExtBlindUDPResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension — blind 80 Mbps UDP blaster vs 8 NewReno flows, 100 Mbps\n")
	fmt.Fprintf(&b, "%8s | %10s | %14s | %8s\n", "qdisc", "udp[Mbps]", "tcpSum[Mbps]", "tcpJFI")
	for _, r := range results {
		fmt.Fprintf(&b, "%8s | %10.2f | %14.2f | %8.3f\n", r.Kind, r.UDPDelivered/1e6, r.TCPAggregate/1e6, r.TCPFlowJFI)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Extension 3 — §7 per-flow-⊤ ablation: two NewReno flows of very unequal
// RTTs, both classified ⊤ (wide δf); compare the aggregate group against
// the per-flow extension.
// ---------------------------------------------------------------------------

// ExtPerFlowScenarios is the ablation: aggregate ⊤ tracking, then the
// per-flow extension.
func ExtPerFlowScenarios(scale Scale) []Scenario {
	dur := horizon(scale, 100e9, Seconds(20))
	out := make([]Scenario, 2)
	for i, mode := range []string{"aggregate", "per-flow"} {
		p := core.DefaultParams(50e6, 420*1500, ms(80))
		p.DeltaFlow = 0.9
		p.PerFlowTop = i == 1
		out[i] = Scenario{
			Name:          "ext-perflow/" + mode,
			BottleneckBps: 50e6,
			BufferBytes:   420 * 1500,
			Groups: []FlowGroup{
				{CC: "newreno", Count: 1, RTT: ms(10)},
				{CC: "newreno", Count: 1, RTT: ms(80)},
			},
			Duration: dur,
			Qdisc:    Cebinae,
			Params:   &p,
			Seed:     5,
		}
	}
	return out
}

// RenderExtPerFlow prints the ablation, one row per ⊤-tracking mode.
func RenderExtPerFlow(rs []Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension — §7 per-flow ⊤ ablation (2 NewReno, RTT 10 vs 80 ms, both ⊤)\n")
	fmt.Fprintf(&b, "%10s | %6s | %14s\n", "mode", "JFI", "goodput[Mbps]")
	for _, r := range rs {
		mode := "aggregate"
		if r.Scenario.Params.PerFlowTop {
			mode = "per-flow"
		}
		fmt.Fprintf(&b, "%10s | %6.3f | %14.2f\n", mode, r.JFI, r.GoodputBps/1e6)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Extension 5 — the §3.2 strawman comparison: a Cubic incumbent converges
// alone for 10 s, then four Vegas flows join. The token-bucket strawman
// freezes the unfair allocation; Cebinae redistributes.
// ---------------------------------------------------------------------------

// ExtStrawmanScenarios is the scenario under FIFO, the strawman and
// Cebinae.
func ExtStrawmanScenarios(scale Scale) []Scenario {
	dur := horizon(scale, 100e9, Seconds(30))
	return perKind("ext-strawman/cubic+4vegas", Scenario{
		BottleneckBps: 50e6,
		BufferBytes:   420 * 1500,
		Groups: []FlowGroup{
			{CC: "cubic", Count: 1, RTT: ms(40)},
			{CC: "vegas", Count: 4, RTT: ms(40), StartAt: Seconds(10)},
		},
		Duration:       dur,
		WarmupFraction: 0.65, // measure well after the latecomers arrive
		Seed:           31,
	}, FIFO, Strawman, Cebinae)
}

// RenderExtStrawman prints the incumbent's and the mean latecomer's tail
// goodput per discipline.
func RenderExtStrawman(rs []Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension — §3.2 strawman vs Cebinae: Cubic incumbent, 4 late Vegas, 50 Mbps\n")
	fmt.Fprintf(&b, "%9s | %15s | %15s | %6s\n", "qdisc", "incumbent[Mbps]", "latecomer[Mbps]", "JFI")
	for _, r := range rs {
		var late float64
		for _, f := range r.Flows[1:] {
			late += f.GoodputBps
		}
		late /= float64(len(r.Flows) - 1)
		fmt.Fprintf(&b, "%9s | %15.2f | %15.2f | %6.3f\n", r.Scenario.Qdisc, r.Flows[0].GoodputBps/1e6, late/1e6, r.JFI)
	}
	return b.String()
}
