// cebinae-trace generates synthetic backbone traces (the Fig. 13 input) and
// evaluates heavy-hitter cache geometries against them: flow statistics,
// skew, and ⊤-detection FPR/FNR for a chosen stages × slots × interval
// point. Use it to size the cache for a deployment's flow churn.
//
// Examples:
//
//	cebinae-trace -stats                         # trace shape only
//	cebinae-trace -stages 2 -slots 2048 -interval 50ms -trials 20
//	cebinae-trace -flows-per-min 1e6 -duration 2s -stats
//	cebinae-trace -replay -standing 100000 -duration 400ms   # drive the trace live
//
// Flags no mode can run are refused before anything is generated: a
// non-positive -link-gbps, -interval or -trials, a cache geometry whose
// -slots is not a power of two or whose -stages is not positive, and a
// trace shape the generator rejects (e.g. -duration 0, -alpha 0 or
// -flows-per-min 0 without standing flows).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"cebinae/experiments"
	"cebinae/internal/cli"
	"cebinae/internal/sim"
	"cebinae/internal/trace"
)

func main() {
	var (
		flowsPerMin = flag.Float64("flows-per-min", 420000, "Poisson flow arrival rate")
		duration    = flag.Duration("duration", time.Second, "trace duration")
		linkBps     = flag.Float64("link-gbps", 10, "modelled link rate in Gbit/s (positive)")
		alpha       = flag.Float64("alpha", 1.2, "Pareto tail index of flow sizes")
		seed        = flag.Uint64("seed", 1, "base seed")
		statsOnly   = flag.Bool("stats", false, "print trace statistics and exit")
		replayRun   = flag.Bool("replay", false, "drive the trace live through a replay.Source and a Cebinae core instead of evaluating offline")
		standing    = flag.Int("standing", 0, "standing flows at t=0 for -replay (0 = pure Poisson churn)")

		stages   = flag.Int("stages", 2, "cache stages")
		slots    = flag.Int("slots", 2048, "cache slots per stage (power of two)")
		interval = flag.Duration("interval", 100*time.Millisecond, "poll round interval (positive)")
		trials   = flag.Int("trials", 10, "independent trials (seeds, positive)")
		deltaF   = flag.Float64("deltaf", 0.01, "⊤ threshold δf")
	)
	flag.Parse()

	cfg := trace.DefaultConfig()
	cfg.FlowsPerMinute = *flowsPerMin
	cfg.Duration = sim.Duration(*duration)
	cfg.LinkBps = *linkBps * 1e9
	cfg.ParetoAlpha = *alpha
	cfg.Seed = *seed

	cli.Main("", "", func() error {
		if err := checkFlags(cfg, *replayRun, *stages, *slots, *interval, *trials); err != nil {
			return err
		}
		if *replayRun {
			return runReplay(os.Stdout, cfg, *standing, *linkBps*1e9)
		}

		pkts := trace.Generate(cfg)
		agg := trace.Aggregate(pkts, 0, cfg.Duration)
		var totalBytes int64
		for _, fc := range agg {
			totalBytes += fc.Bytes
		}
		fmt.Printf("trace: %d packets, %d flows, %.2f MB over %v (%.2f Gbps offered)\n",
			len(pkts), len(agg), float64(totalBytes)/1e6, *duration,
			float64(totalBytes)*8/duration.Seconds()/1e9)
		if len(agg) > 0 {
			top10 := int64(0)
			n10 := len(agg) / 10
			if n10 == 0 {
				n10 = 1
			}
			for _, fc := range agg[:n10] {
				top10 += fc.Bytes
			}
			fmt.Printf("skew: top-10%% of flows carry %.1f%% of bytes; max flow %.2f MB\n",
				100*float64(top10)/float64(totalBytes), float64(agg[0].Bytes)/1e6)
		}
		if *statsOnly {
			return nil
		}

		pt, _, err := cli.RunCell(func() experiments.Fig13Point {
			return experiments.Fig13Score(experiments.Fig13Config{Trials: *trials, DeltaFlow: *deltaF, Trace: cfg},
				*stages, *slots, sim.Duration(*interval))
		}, os.Stderr)
		if err != nil {
			return err
		}
		fmt.Printf("cache %d×%d @ %v over %d trials: FPR=%.6f FNR=%.4f\n",
			*stages, *slots, *interval, *trials, pt.FPR, pt.FNR)
		return nil
	})
}

// checkFlags refuses what no mode can run: a non-positive link rate, poll
// interval or trial count, or a cache geometry hhcache cannot build. The
// offline modes also refuse a trace config that trace.Config.Validate
// rejects; -replay validates the trace it replays itself (runReplay).
func checkFlags(cfg trace.Config, replay bool, stages, slots int, interval time.Duration, trials int) error {
	switch {
	case cfg.LinkBps <= 0:
		return fmt.Errorf("-link-gbps must be positive, got %v", cfg.LinkBps/1e9)
	case interval <= 0:
		return fmt.Errorf("-interval must be positive, got %v", interval)
	case trials <= 0:
		return fmt.Errorf("-trials must be positive, got %d", trials)
	case slots <= 0 || slots&(slots-1) != 0 || stages <= 0:
		return errors.New("slots must be a power of two, stages positive")
	case replay:
		return nil
	}
	return cfg.Validate()
}

// runReplay sends the generated schedule through the live backbone path:
// the same -flows-per-min/-duration/-alpha/-seed trace shape, but replayed
// packet by packet through a Cebinae core at the modelled link rate rather
// than aggregated offline. The run is one cell through the runner every
// CLI uses (internal/cli).
func runReplay(w io.Writer, tc trace.Config, standing int, coreBps float64) error {
	bb := experiments.BackboneTier(max(standing, 1), experiments.Full)
	bb.Name = "trace-replay"
	bb.Flows = standing
	bb.CoreBps = coreBps
	bb.AccessBps = 4 * coreBps
	bb.Duration = tc.Duration
	bb.Trace = tc
	bb.Trace.StandingFlows = standing
	bb.Trace.LifetimeScale = float64(standing) / 2000
	bb.Trace.LinkBps = 0 // no offline thinning: the replay loop paces live
	if err := bb.Trace.Validate(); err != nil {
		return err
	}

	r, wall, err := cli.RunCell(func() experiments.BackboneResult { return experiments.RunBackbone(bb) }, os.Stderr)
	if err != nil {
		return err
	}
	fmt.Fprint(w, r.Render())
	fmt.Fprintf(w, "wall: %v (%.0f events/s)\n", wall.Round(time.Millisecond), float64(r.Events)/wall.Seconds())
	return nil
}
