package experiments

import (
	"fmt"
	"strings"

	"cebinae/internal/sim"
)

// ---------------------------------------------------------------------------
// Extension 4 — the §2 scalability argument, quantified: AFQ's calendar
// must satisfy Eq. 1 (buffer_req ≤ BpR × nQ) for *every* flow, so with a
// fixed hardware budget (nQ queues × BpR bytes, see PortQdisc.install) its
// fairness collapses as RTT (and hence per-flow burst/buffer requirements)
// grows. Cebinae uses two queues regardless. We sweep the base RTT for 8
// NewReno flows under AFQ, Cebinae, and FIFO with the same switch buffer
// and report goodput and JFI per point.
// ---------------------------------------------------------------------------

var scalabilityKinds = []QdiscKind{FIFO, AFQ, PCQ, Cebinae}

// ExtScalabilityScenarios is the sweep: each RTT under FIFO, AFQ, PCQ and
// Cebinae.
func ExtScalabilityScenarios(scale Scale) []Scenario {
	dur := horizon(scale, 100e9, Seconds(10))
	var out []Scenario
	for _, rtt := range []sim.Time{ms(10), ms(40), ms(100), ms(200)} {
		out = append(out, perKind("ext-scalability/"+msName(rtt), Scenario{
			BottleneckBps: 500e6,
			BufferBytes:   8 << 20,
			Groups:        []FlowGroup{{CC: "newreno", Count: 8, RTT: rtt}},
			Duration:      dur,
			Seed:          23,
		}, scalabilityKinds...)...)
	}
	return out
}

// RenderExtScalability prints the sweep, one row per RTT.
func RenderExtScalability(rs []Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension — Eq.1 scalability: 8 NewReno on 500 Mbps, AFQ/PCQ fixed at 32×12.8kB\n")
	fmt.Fprintf(&b, "%8s | %9s %9s %9s %9s | %7s %7s %7s %7s\n", "RTT[ms]", "Gp-FIFO", "Gp-AFQ", "Gp-PCQ", "Gp-Ceb", "J-FIFO", "J-AFQ", "J-PCQ", "J-Ceb")
	for i := 0; i < len(rs); i += len(scalabilityKinds) {
		f, a, p, c := rs[i], rs[i+1], rs[i+2], rs[i+3]
		fmt.Fprintf(&b, "%8.0f | %9.1f %9.1f %9.1f %9.1f | %7.3f %7.3f %7.3f %7.3f\n",
			float64(f.Scenario.Groups[0].RTT)/1e6,
			f.GoodputBps/1e6, a.GoodputBps/1e6, p.GoodputBps/1e6, c.GoodputBps/1e6,
			f.JFI, a.JFI, p.JFI, c.JFI)
	}
	return b.String()
}
