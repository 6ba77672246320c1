package experiments

import (
	"fmt"
	"strings"

	"cebinae/internal/core"
	"cebinae/internal/hhcache"
	"cebinae/internal/maxmin"
	"cebinae/internal/metrics"
	"cebinae/internal/packet"
	"cebinae/internal/resource"
	"cebinae/internal/sim"
	"cebinae/internal/trace"
)

// ---------------------------------------------------------------------------
// Figure 11: the parking-lot multi-bottleneck scenario — 8 NewReno flows
// across 3 hops contend with 2 Bic, 8 Vegas, and 4 Cubic cross flows at
// three 100 Mbps bottlenecks. Measured against the ideal max-min
// allocation via the normalised JFI of §5.3.
// ---------------------------------------------------------------------------

// Fig11Result carries per-flow goodputs, the ideal allocation, and the
// normalised JFI per discipline.
type Fig11Result struct {
	// Labels[i] names flow i (paper indexing: 0–7 NewReno long, 8–9 Bic,
	// 10–17 Vegas, 18–21 Cubic).
	Labels     []string
	IdealBps   []float64
	GoodputBps map[QdiscKind][]float64
	NormJFI    map[QdiscKind]float64
}

// Fig11Ideal computes the water-filling allocation for the topology.
func Fig11Ideal() []float64 {
	n := &maxmin.Network{
		Capacity: []float64{100e6, 100e6, 100e6},
		Routes:   make([][]int, 0, 22),
	}
	for i := 0; i < 8; i++ { // long NewReno flows traverse every hop
		n.Routes = append(n.Routes, []int{0, 1, 2})
	}
	for i := 0; i < 2; i++ { // Bic at hop 1
		n.Routes = append(n.Routes, []int{0})
	}
	for i := 0; i < 8; i++ { // Vegas at hop 2
		n.Routes = append(n.Routes, []int{1})
	}
	for i := 0; i < 4; i++ { // Cubic at hop 3
		n.Routes = append(n.Routes, []int{2})
	}
	rates, err := maxmin.Allocate(n)
	if err != nil {
		panic(err)
	}
	return rates
}

// Fig11 runs the parking-lot experiment under FIFO and Cebinae.
func Fig11(scale Scale) Fig11Result {
	dur := sim.Time(float64(scale) * 100e9)
	res := Fig11Result{
		IdealBps:   Fig11Ideal(),
		GoodputBps: map[QdiscKind][]float64{},
		NormJFI:    map[QdiscKind]float64{},
	}
	for i := 0; i < 8; i++ {
		res.Labels = append(res.Labels, fmt.Sprintf("newreno-long%d", i))
	}
	for i := 0; i < 2; i++ {
		res.Labels = append(res.Labels, fmt.Sprintf("bic-x1.%d", i))
	}
	for i := 0; i < 8; i++ {
		res.Labels = append(res.Labels, fmt.Sprintf("vegas-x2.%d", i))
	}
	for i := 0; i < 4; i++ {
		res.Labels = append(res.Labels, fmt.Sprintf("cubic-x3.%d", i))
	}

	for _, kind := range []QdiscKind{FIFO, Cebinae} {
		res.GoodputBps[kind] = RunChain(CanonicalChain(kind, dur, 0)).Goodputs()
		ideal := make([]float64, len(res.IdealBps))
		copy(ideal, res.IdealBps)
		res.NormJFI[kind] = metrics.NormalizedJFI(res.GoodputBps[kind], ideal)
	}
	return res
}

// Render prints per-flow goodputs against the ideal.
func (f Fig11Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig.11 — parking lot (3×100 Mbps): per-flow goodput [Mbps] vs ideal max-min\n")
	fmt.Fprintf(&b, "%4s %-16s | %6s | %8s | %8s\n", "flow", "kind", "ideal", "FIFO", "Cebinae")
	for i := range f.Labels {
		fmt.Fprintf(&b, "%4d %-16s | %6.2f | %8.2f | %8.2f\n", i, f.Labels[i],
			f.IdealBps[i]/1e6, f.GoodputBps[FIFO][i]/1e6, f.GoodputBps[Cebinae][i]/1e6)
	}
	fmt.Fprintf(&b, "normalised JFI: FIFO=%.3f Cebinae=%.3f\n", f.NormJFI[FIFO], f.NormJFI[Cebinae])
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 12: parameter sensitivity — 16 NewReno vs 1 Cubic on 100 Mbps,
// sweeping δp = δf = τ together from 1% to 100%; JFI and goodput, with
// FIFO and FQ reference lines.
// ---------------------------------------------------------------------------

// Fig12Point is one threshold setting's outcome.
type Fig12Point struct {
	ThresholdPct float64
	JFI          float64
	GoodputBps   float64
}

// Fig12Result carries the sweep plus reference baselines.
type Fig12Result struct {
	Points      []Fig12Point
	FIFOJFI     float64
	FIFOGoodput float64
	FQJFI       float64
	FQGoodput   float64
}

// Fig12 runs the sweep.
func Fig12(scale Scale) Fig12Result {
	dur := sim.Time(float64(scale) * 100e9)
	base := Scenario{
		BottleneckBps: 100e6,
		BufferBytes:   850 * 1500,
		Groups: []FlowGroup{
			{CC: "newreno", Count: 16, RTT: ms(50)},
			{CC: "cubic", Count: 1, RTT: ms(50)},
		},
		Duration: dur,
		Seed:     7,
	}
	var out Fig12Result
	{
		s := base
		s.Name, s.Qdisc = "fig12/fifo", FIFO
		r := Run(s)
		out.FIFOJFI, out.FIFOGoodput = r.JFI, r.GoodputBps
	}
	{
		s := base
		s.Name, s.Qdisc = "fig12/fq", FQ
		r := Run(s)
		out.FQJFI, out.FQGoodput = r.JFI, r.GoodputBps
	}
	for _, pct := range []float64{1, 2, 5, 10, 25, 50, 75, 100} {
		p := core.DefaultParams(base.BottleneckBps, base.BufferBytes, ms(50))
		p.DeltaPort = pct / 100
		p.DeltaFlow = pct / 100
		p.Tau = pct / 100
		s := base
		s.Name, s.Qdisc, s.Params = fmt.Sprintf("fig12/ceb/%g", pct), Cebinae, &p
		r := Run(s)
		out.Points = append(out.Points, Fig12Point{ThresholdPct: pct, JFI: r.JFI, GoodputBps: r.GoodputBps})
	}
	return out
}

// Render prints the sweep.
func (f Fig12Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig.12 — 16 NewReno vs 1 Cubic, 100 Mbps; thresholds δp=δf=τ swept together\n")
	fmt.Fprintf(&b, "%9s | %6s | %14s\n", "thresh[%]", "JFI", "goodput[Mbps]")
	for _, p := range f.Points {
		fmt.Fprintf(&b, "%9g | %6.3f | %14.2f\n", p.ThresholdPct, p.JFI, p.GoodputBps/1e6)
	}
	fmt.Fprintf(&b, "ref FIFO: JFI=%.3f goodput=%.2f | ref FQ: JFI=%.3f goodput=%.2f\n",
		f.FIFOJFI, f.FIFOGoodput/1e6, f.FQJFI, f.FQGoodput/1e6)
	return b.String()
}

// ---------------------------------------------------------------------------
// Table 3: Tofino resource usage for 1- and 2-stage cache builds.
// ---------------------------------------------------------------------------

// Table3Row pairs a build config with its modelled usage.
type Table3Row struct {
	Usage resource.Usage
	Fits  bool
}

// Table3 evaluates the paper's two configurations (32 ports, 4096 slots per
// port per stage).
func Table3() []Table3Row {
	var out []Table3Row
	for _, stages := range []int{1, 2} {
		u := resource.Estimate(resource.Config{Ports: 32, CacheStages: stages, CacheSlots: 4096, TopTableEntries: 1024})
		ok, _ := u.Fits(resource.TofinoBudget())
		out = append(out, Table3Row{Usage: u, Fits: ok})
	}
	return out
}

// RenderTable3 prints the table in the paper's layout.
func RenderTable3(rows []Table3Row) string {
	var b strings.Builder
	budget := resource.TofinoBudget()
	fmt.Fprintf(&b, "Table 3 — Cebinae data-plane resource usage (32-port Tofino model)\n")
	fmt.Fprintf(&b, "%11s | %14s | %6s | %8s | %7s | %10s | %6s | %4s\n",
		"Cache stages", "Pipeline stages", "PHV", "SRAM", "TCAM", "VLIW instrs", "Queues", "fits")
	for _, r := range rows {
		fmt.Fprintf(&b, "%12d | %15d | %4db | %5dKB | %4dKB | %11d | %6d | %v\n",
			r.Usage.CacheStages, r.Usage.PipelineStages, r.Usage.PHVBits, r.Usage.SRAMKB,
			r.Usage.TCAMKB, r.Usage.VLIWInstrs, r.Usage.Queues, r.Fits)
	}
	fmt.Fprintf(&b, "budget: %d stages, %db PHV, %dKB SRAM, %dKB TCAM, %d VLIW, %d queues\n",
		budget.PipelineStages, budget.PHVBits, budget.SRAMKB, budget.TCAMKB, budget.VLIWInstrs, budget.Queues)
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 13: ⊤-flow detection accuracy of the heavy-hitter cache on a
// synthetic backbone trace — FPR/FNR vs round interval (a) and slot count
// (b), for 1/2/4-stage caches.
// ---------------------------------------------------------------------------

// Fig13Point is one (stages, slots, interval) accuracy measurement.
type Fig13Point struct {
	Stages   int
	Slots    int
	Interval sim.Time
	FPR      float64
	FNR      float64
}

// Fig13Config parameterises the accuracy sweep.
type Fig13Config struct {
	Trials    int
	DeltaFlow float64
	Trace     trace.Config
}

// DefaultFig13Config mirrors the paper: 100 trials per point at Full scale.
func DefaultFig13Config(scale Scale) Fig13Config {
	trials := int(100 * float64(scale))
	if trials < 5 {
		trials = 5
	}
	tc := trace.DefaultConfig()
	tc.Duration = sim.Duration(500e6) // 0.5 s of backbone traffic per trial
	return Fig13Config{Trials: trials, DeltaFlow: 0.01, Trace: tc}
}

// Fig13a varies the round interval at 2048 slots.
func Fig13a(cfg Fig13Config) []Fig13Point {
	var out []Fig13Point
	for _, stages := range []int{1, 2, 4} {
		for _, ivalMS := range []float64{20, 40, 60, 80, 100} {
			out = append(out, Fig13Score(cfg, stages, 2048, ms(ivalMS)))
		}
	}
	return out
}

// Fig13b varies the slot count at a 100 ms interval.
func Fig13b(cfg Fig13Config) []Fig13Point {
	var out []Fig13Point
	for _, stages := range []int{1, 2, 4} {
		for _, slots := range []int{512, 1024, 2048, 4096} {
			out = append(out, Fig13Score(cfg, stages, slots, ms(100)))
		}
	}
	return out
}

// Fig13Score replays cfg.Trials trials of the synthetic trace — trial i
// seeded cfg.Trace.Seed + i — through a cache of the given geometry,
// comparing detected ⊤ flows against ground truth per round interval.
func Fig13Score(cfg Fig13Config, stages, slots int, interval SimTime) Fig13Point {
	var fpSum, fnSum float64
	var fpDen, fnDen float64
	for trial := 0; trial < cfg.Trials; trial++ {
		tc := cfg.Trace
		tc.Seed = cfg.Trace.Seed + uint64(trial)
		pkts := trace.Generate(tc)
		cache := hhcache.New(stages, slots)

		for from := sim.Time(0); from < tc.Duration; from += interval {
			to := from + interval
			// Ground truth over the window.
			truth := trace.Aggregate(pkts, from, to)
			if len(truth) == 0 {
				continue
			}
			trueMax := truth[0].Bytes
			trueTop := map[packet.FlowKey]bool{}
			for _, fc := range truth {
				if float64(fc.Bytes) >= float64(trueMax)*(1-cfg.DeltaFlow) {
					trueTop[fc.Flow] = true
				}
			}
			// Replay through the cache.
			for _, p := range pkts {
				if p.At >= from && p.At < to {
					cache.Observe(p.Flow, int64(p.Bytes))
				}
			}
			entries := cache.Poll()
			var cacheMax int64
			for _, e := range entries {
				if e.Bytes > cacheMax {
					cacheMax = e.Bytes
				}
			}
			detected := map[packet.FlowKey]bool{}
			for _, e := range entries {
				if float64(e.Bytes) >= float64(cacheMax)*(1-cfg.DeltaFlow) {
					detected[e.Flow] = true
				}
			}
			// Score.
			var fp, fn int
			for f := range detected {
				if !trueTop[f] {
					fp++
				}
			}
			for f := range trueTop {
				if !detected[f] {
					fn++
				}
			}
			fpSum += float64(fp)
			fpDen += float64(len(truth) - len(trueTop))
			fnSum += float64(fn)
			fnDen += float64(len(trueTop))
		}
	}
	pt := Fig13Point{Stages: stages, Slots: slots, Interval: interval}
	if fpDen > 0 {
		pt.FPR = fpSum / fpDen
	}
	if fnDen > 0 {
		pt.FNR = fnSum / fnDen
	}
	return pt
}

// RenderFig13 prints both panels.
func RenderFig13(a, b []Fig13Point) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Fig.13a — FPR/FNR vs round interval (2048 slots)\n")
	fmt.Fprintf(&sb, "%6s %9s | %10s | %8s\n", "stages", "ival[ms]", "FPR", "FNR")
	for _, p := range a {
		fmt.Fprintf(&sb, "%6d %9.0f | %10.6f | %8.4f\n", p.Stages, float64(p.Interval)/1e6, p.FPR, p.FNR)
	}
	fmt.Fprintf(&sb, "Fig.13b — FPR/FNR vs slot count (100 ms interval)\n")
	fmt.Fprintf(&sb, "%6s %9s | %10s | %8s\n", "stages", "slots", "FPR", "FNR")
	for _, p := range b {
		fmt.Fprintf(&sb, "%6d %9d | %10.6f | %8.4f\n", p.Stages, p.Slots, p.FPR, p.FNR)
	}
	return sb.String()
}
