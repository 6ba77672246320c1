package experiments

import (
	"fmt"
	"sort"
	"strings"

	"cebinae/internal/sim"
)

// The paper's dumbbell figures. Each is a list of scenarios — one
// independent run apiece, named "<section>/<key>" — and a renderer over
// the runs' Results in scenario order; BenchSections runs every scenario
// as its own fleet job.

// perKind is one copy of base per discipline, named "<name>/<kind>".
func perKind(name string, base Scenario, kinds ...QdiscKind) []Scenario {
	out := make([]Scenario, len(kinds))
	for i, k := range kinds {
		s := base
		s.Name, s.Qdisc = name+"/"+string(k), k
		out[i] = s
	}
	return out
}

// msName formats an RTT for a scenario name ("16ms").
func msName(t sim.Time) string { return fmt.Sprintf("%gms", float64(t)/1e6) }

// ---------------------------------------------------------------------------
// Figure 1: two NewReno flows with differing RTTs, FIFO vs Cebinae goodput
// time series over 50 s on a 100 Mbps bottleneck.
// ---------------------------------------------------------------------------

// Fig1Scenarios is Fig. 1's runs, FIFO then Cebinae (Full = the paper's
// 50 s).
func Fig1Scenarios(scale Scale) []Scenario {
	dur := horizon(scale, 50e9, sim.Duration(5e9))
	return perKind("fig1", Scenario{
		BottleneckBps: 100e6,
		BufferBytes:   450 * 1500,
		Groups: []FlowGroup{
			{CC: "newreno", Count: 1, RTT: ms(20.4)},
			{CC: "newreno", Count: 1, RTT: ms(40)},
		},
		Duration:       dur,
		SampleInterval: sim.Duration(1e9),
		Seed:           7,
	}, FIFO, Cebinae)
}

// RenderFig1 prints the series as aligned columns (MBps, as the paper's
// axis) beside Cebinae's per-second phase ('u' unsaturated / 'S'
// saturated), the background colouring of the paper's figure.
func RenderFig1(rs []Result) string {
	fifo, ceb := rs[0], rs[1]
	var b strings.Builder
	fmt.Fprintf(&b, "Fig.1 — goodput [MBps] of 2 NewReno flows (RTT 20.4 ms vs 40 ms), 100 Mbps bottleneck\n")
	fmt.Fprintf(&b, "%5s | %12s %12s | %15s %15s | %s\n", "t[s]", "FIFO 20.4ms", "FIFO 40ms", "Cebinae 20.4ms", "Cebinae 40ms", "state")
	for i := range fifo.Flows[0].Series {
		state := byte(' ')
		if i < len(ceb.StateSeries) {
			state = ceb.StateSeries[i]
		}
		fmt.Fprintf(&b, "%5d | %12.2f %12.2f | %15.2f %15.2f | %c\n", i+1,
			fifo.Flows[0].Series[i]/1e6, fifo.Flows[1].Series[i]/1e6, ceb.Flows[0].Series[i]/1e6, ceb.Flows[1].Series[i]/1e6, state)
	}
	fmt.Fprintf(&b, "(state: u = unsaturated, S = saturated — the paper's background colouring)\n")
	fmt.Fprintf(&b, "JFI: FIFO=%.3f Cebinae=%.3f\n", fifo.JFI, ceb.JFI)
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 7: 16 Vegas flows vs 1 NewReno flow on 100 Mbps — per-flow goodput
// bars under FIFO and Cebinae.
// ---------------------------------------------------------------------------

// Fig7Scenarios is the starvation-prevention experiment, FIFO then
// Cebinae.
func Fig7Scenarios(scale Scale) []Scenario {
	return perKind("fig7", Scenario{
		BottleneckBps: 100e6,
		BufferBytes:   850 * 1500,
		Groups: []FlowGroup{
			{CC: "vegas", Count: 16, RTT: ms(100)},
			{CC: "newreno", Count: 1, RTT: ms(100)},
		},
		Duration: sim.Time(float64(scale) * 100e9),
		Seed:     7,
	}, FIFO, Cebinae)
}

// RenderFig7 prints per-flow bars.
func RenderFig7(rs []Result) string {
	fifo, ceb := rs[0], rs[1]
	var b strings.Builder
	fmt.Fprintf(&b, "Fig.7 — 16 Vegas (0–15) + 1 NewReno (16), 100 Mbps: per-flow goodput [Mbps]\n")
	fmt.Fprintf(&b, "%4s | %8s | %8s\n", "flow", "FIFO", "Cebinae")
	for i := range fifo.Flows {
		fmt.Fprintf(&b, "%4d | %8.2f | %8.2f\n", i, fifo.Flows[i].GoodputBps/1e6, ceb.Flows[i].GoodputBps/1e6)
	}
	fmt.Fprintf(&b, "JFI: FIFO=%.3f Cebinae=%.3f\n", fifo.JFI, ceb.JFI)
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 8: goodput CDFs. (a) 128 NewReno vs 2 BBR on 1 Gbps;
// (b) 128 NewReno vs 4 Vegas on 1 Gbps with RTTs 100/64 ms.
// ---------------------------------------------------------------------------

// Fig8aScenarios: aggressive BBR flows against many NewReno flows.
func Fig8aScenarios(scale Scale) []Scenario {
	return fig8("fig8a", scale, []FlowGroup{
		{CC: "newreno", Count: 128, RTT: ms(50)},
		{CC: "bbr", Count: 2, RTT: ms(50)},
	}, 4200*1500)
}

// Fig8bScenarios: Vegas starvation among many NewReno flows.
func Fig8bScenarios(scale Scale) []Scenario {
	return fig8("fig8b", scale, []FlowGroup{
		{CC: "newreno", Count: 128, RTT: ms(100)},
		{CC: "vegas", Count: 4, RTT: ms(64)},
	}, 8500*1500)
}

func fig8(label string, scale Scale, groups []FlowGroup, buf int) []Scenario {
	return perKind(label, Scenario{
		BottleneckBps: 1e9,
		BufferBytes:   buf,
		Groups:        groups,
		Duration:      table2Duration(1e9, scale),
		Seed:          7,
	}, FIFO, Cebinae)
}

// RenderFig8 prints points of both runs' goodput CDFs, titled by their
// section (fig8a or fig8b): at probability p, the smallest goodput whose
// empirical CDF, (rank+1)/n, reaches p.
func RenderFig8(rs []Result) string {
	label, _, _ := strings.Cut(rs[0].Scenario.Name, "/")
	var b strings.Builder
	fmt.Fprintf(&b, "%s — goodput CDF [Mbps]\n%6s | %8s | %8s\n", label, "pct", "FIFO", "Cebinae")
	var sorted [2][]float64
	for k, r := range rs[:2] {
		for _, f := range r.Flows {
			sorted[k] = append(sorted[k], f.GoodputBps)
		}
		sort.Float64s(sorted[k])
	}
	quantile := func(s []float64, p float64) float64 {
		for i, v := range s {
			if float64(i+1)/float64(len(s)) >= p {
				return v
			}
		}
		return 0 // no flows: at p ≤ 1 the last rank always reaches p
	}
	for _, p := range []float64{0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 1.0} {
		fmt.Fprintf(&b, "%5.0f%% | %8.2f | %8.2f\n", p*100, quantile(sorted[0], p)/1e6, quantile(sorted[1], p)/1e6)
	}
	fmt.Fprintf(&b, "JFI: FIFO=%.3f Cebinae=%.3f\n", rs[0].JFI, rs[1].JFI)
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 9: RTT unfairness — 4 Cubic flows at 256 ms vs 4 Cubic flows at
// 16–256 ms over 400 Mbps, 3 MB buffer; JFI and aggregate goodput per
// asymmetry point, under FIFO, FQ, and Cebinae.
// ---------------------------------------------------------------------------

var fig9Kinds = []QdiscKind{FIFO, FQ, Cebinae}

// Fig9Scenarios sweeps the variable group's RTT, each point under FIFO,
// FQ and Cebinae.
func Fig9Scenarios(scale Scale) []Scenario {
	var out []Scenario
	for _, rtt := range []sim.Time{ms(16), ms(32), ms(64), ms(128), ms(256)} {
		out = append(out, perKind("fig9/"+msName(rtt), Scenario{
			BottleneckBps: 400e6,
			BufferBytes:   3 << 20,
			Groups: []FlowGroup{
				{CC: "cubic", Count: 4, RTT: ms(256)},
				{CC: "cubic", Count: 4, RTT: rtt},
			},
			Duration: sim.Time(float64(scale) * 100e9),
			Seed:     7,
		}, fig9Kinds...)...)
	}
	return out
}

// RenderFig9 prints the two panels' series, one row per RTT point.
func RenderFig9(rs []Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig.9 — 4+4 Cubic, fixed 256 ms vs varying RTT, 400 Mbps\n")
	fmt.Fprintf(&b, "%8s | %7s %7s %7s | %9s %9s %9s\n", "RTT[ms]", "JFI-F", "JFI-FQ", "JFI-C", "Gp-F", "Gp-FQ", "Gp-C")
	for i := 0; i < len(rs); i += len(fig9Kinds) {
		f, q, c := rs[i], rs[i+1], rs[i+2]
		fmt.Fprintf(&b, "%8.0f | %7.3f %7.3f %7.3f | %9.1f %9.1f %9.1f\n",
			float64(f.Scenario.Groups[1].RTT)/1e6,
			f.JFI, q.JFI, c.JFI,
			f.GoodputBps/1e6, q.GoodputBps/1e6, c.GoodputBps/1e6)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 10: JFI time series with flow arrivals — 32 Vegas flows in steady
// state, a NewReno flow arrives ≈5 s, a Cubic flow ≈25 s.
// ---------------------------------------------------------------------------

// Fig10Scenarios is the arrival dynamics experiment under FIFO, FQ and
// Cebinae (Full = 50 s).
func Fig10Scenarios(scale Scale) []Scenario {
	// A 30 s floor reaches past the 25 s arrival.
	dur := horizon(scale, 50e9, sim.Duration(30e9))
	return perKind("fig10", Scenario{
		BottleneckBps: 100e6,
		BufferBytes:   850 * 1500,
		Groups: []FlowGroup{
			{CC: "vegas", Count: 32, RTT: ms(40)},
			{CC: "newreno", Count: 1, RTT: ms(40), StartAt: sim.Duration(5e9)},
			{CC: "cubic", Count: 1, RTT: ms(40), StartAt: sim.Duration(25e9)},
		},
		Duration:       dur,
		SampleInterval: sim.Duration(1e9),
		Seed:           7,
	}, FIFO, FQ, Cebinae)
}

// RenderFig10 prints the per-second JFI series.
func RenderFig10(rs []Result) string {
	f, q, c := rs[0].JFISeries, rs[1].JFISeries, rs[2].JFISeries
	var b strings.Builder
	fmt.Fprintf(&b, "Fig.10 — JFI/s; 32 Vegas steady, NewReno @5s, Cubic @25s, 100 Mbps\n")
	fmt.Fprintf(&b, "%5s | %6s %6s %8s\n", "t[s]", "FIFO", "FQ", "Cebinae")
	for i := range f {
		fmt.Fprintf(&b, "%5d | %6.3f %6.3f %8.3f\n", i+1, f[i], q[i], c[i])
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 12: parameter sensitivity — 16 NewReno vs 1 Cubic on 100 Mbps,
// sweeping δp = δf = τ together from 1% to 100%; JFI and goodput, with
// FIFO and FQ reference lines.
// ---------------------------------------------------------------------------

// fig12Family is Fig. 12's contention at scale: 16 NewReno vs 1 Cubic at
// 50 ms on 100 Mbps behind an 850-MTU buffer, seed 7. The sweep's default
// family is it at full scale.
func fig12Family(scale Scale) Scenario {
	return Scenario{
		BottleneckBps: 100e6,
		BufferBytes:   850 * 1500,
		Groups: []FlowGroup{
			{CC: "newreno", Count: 16, RTT: ms(50)},
			{CC: "cubic", Count: 1, RTT: ms(50)},
		},
		Duration: sim.Time(float64(scale) * 100e9),
		Seed:     7,
	}
}

// Fig12Scenarios is the FIFO and FQ references, then Cebinae at each
// threshold.
func Fig12Scenarios(scale Scale) []Scenario {
	base := fig12Family(scale)
	out := perKind("fig12", base, FIFO, FQ)
	for _, pct := range []float64{1, 2, 5, 10, 25, 50, 75, 100} {
		s := withThreshold(base, pct)
		s.Name = fmt.Sprintf("fig12/ceb/%g", pct)
		out = append(out, s)
	}
	return out
}

// withThreshold returns s under Cebinae at its default parameters, but
// with δp = δf = τ = pct/100: the threshold that Fig. 12 and the sweep
// vary.
func withThreshold(s Scenario, pct float64) Scenario {
	p := DefaultCebinaeParams(s)
	p.DeltaPort = pct / 100
	p.DeltaFlow = pct / 100
	p.Tau = pct / 100
	s.Qdisc, s.Params = Cebinae, &p
	return s
}

// RenderFig12 prints the sweep and the reference lines.
func RenderFig12(rs []Result) string {
	fifo, fq := rs[0], rs[1]
	var b strings.Builder
	fmt.Fprintf(&b, "Fig.12 — 16 NewReno vs 1 Cubic, 100 Mbps; thresholds δp=δf=τ swept together\n")
	fmt.Fprintf(&b, "%9s | %6s | %14s\n", "thresh[%]", "JFI", "goodput[Mbps]")
	for _, r := range rs[2:] {
		fmt.Fprintf(&b, "%9g | %6.3f | %14.2f\n", r.Scenario.Params.Tau*100, r.JFI, r.GoodputBps/1e6)
	}
	fmt.Fprintf(&b, "ref FIFO: JFI=%.3f goodput=%.2f | ref FQ: JFI=%.3f goodput=%.2f\n",
		fifo.JFI, fifo.GoodputBps/1e6, fq.JFI, fq.GoodputBps/1e6)
	return b.String()
}
