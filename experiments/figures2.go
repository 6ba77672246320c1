package experiments

import (
	"fmt"
	"strings"

	"cebinae/internal/hhcache"
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

// Fig11Chains is the parking-lot experiment under FIFO, then Cebinae.
func Fig11Chains(scale Scale) []ChainConfig {
	dur := sim.Time(float64(scale) * 100e9)
	out := make([]ChainConfig, 2)
	for i, kind := range []QdiscKind{FIFO, Cebinae} {
		out[i] = CanonicalChain(kind, dur, 0)
		out[i].Name = "fig11/" + string(kind)
	}
	return out
}

// RenderFig11 prints per-flow goodputs against the ideal max-min
// allocation and each discipline's normalised JFI (§5.3). Flow i is named
// by its CC and chain label (paper indexing: 0–7 NewReno long, 8–9 Bic,
// 10–17 Vegas, 18–21 Cubic).
func RenderFig11(rs []ChainResult) string {
	fifo, ceb := rs[0], rs[1]
	ideal := ChainIdeal(CanonicalChain(FIFO, 0, 0))
	var b strings.Builder
	fmt.Fprintf(&b, "Fig.11 — parking lot (3×100 Mbps): per-flow goodput [Mbps] vs ideal max-min\n")
	fmt.Fprintf(&b, "%4s %-16s | %6s | %8s | %8s\n", "flow", "kind", "ideal", "FIFO", "Cebinae")
	for i, f := range fifo.Flows {
		fmt.Fprintf(&b, "%4d %-16s | %6.2f | %8.2f | %8.2f\n", i, f.CC+"-"+f.Label,
			ideal[i]/1e6, f.GoodputBps/1e6, ceb.Flows[i].GoodputBps/1e6)
	}
	fmt.Fprintf(&b, "normalised JFI: FIFO=%.3f Cebinae=%.3f\n",
		metrics.NormalizedJFI(fifo.Goodputs(), ideal), metrics.NormalizedJFI(ceb.Goodputs(), ideal))
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

var (
	fig13Stages    = []int{1, 2, 4}
	fig13Intervals = []float64{20, 40, 60, 80, 100} // ms, panel (a)
	fig13Slots     = []int{512, 1024, 2048, 4096}   // panel (b)
)

// Fig13Points is Fig. 13's unscored points: panel (a) varies the round
// interval at 2048 slots, then panel (b) the slot count at a 100 ms
// interval, each for 1-, 2- and 4-stage caches. Fig13Score measures one.
func Fig13Points() []Fig13Point {
	var out []Fig13Point
	for _, stages := range fig13Stages {
		for _, ivalMS := range fig13Intervals {
			out = append(out, Fig13Point{Stages: stages, Slots: 2048, Interval: ms(ivalMS)})
		}
	}
	for _, stages := range fig13Stages {
		for _, slots := range fig13Slots {
			out = append(out, Fig13Point{Stages: stages, Slots: slots, Interval: ms(100)})
		}
	}
	return out
}

// fig13PanelA is how many of Fig13Points belong to panel (a).
var fig13PanelA = len(fig13Stages) * len(fig13Intervals)

// fig13Cells scores each of Fig13Points in its own cell, keyed
// "<panel>/<stages>x<slots>/<interval>".
func fig13Cells(scale Scale) []Cell[Fig13Point] {
	cfg := DefaultFig13Config(scale)
	pts := Fig13Points()
	cells := make([]Cell[Fig13Point], len(pts))
	for i, p := range pts {
		panel := "a"
		if i >= fig13PanelA {
			panel = "b"
		}
		cells[i] = Cell[Fig13Point]{
			Key: fmt.Sprintf("%s/%dx%d/%s", panel, p.Stages, p.Slots, msName(p.Interval)),
			Run: func() Fig13Point { return Fig13Score(cfg, p.Stages, p.Slots, p.Interval) },
		}
	}
	return cells
}

// Fig13Score replays cfg.Trials trials of the synthetic trace — trial i
// seeded cfg.Trace.Seed + i — through a cache of the given geometry,
// comparing detected ⊤ flows against ground truth per round interval. It
// panics on a non-positive interval, which would never end a trial.
func Fig13Score(cfg Fig13Config, stages, slots int, interval SimTime) Fig13Point {
	if interval <= 0 {
		panic(fmt.Sprintf("experiments: Fig13Score interval must be positive, got %d ns", int64(interval)))
	}
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

// RenderFig13 prints both panels from the scored Fig13Points.
func RenderFig13(pts []Fig13Point) string {
	a, b := pts[:fig13PanelA], pts[fig13PanelA:]
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
