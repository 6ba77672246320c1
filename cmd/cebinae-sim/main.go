// cebinae-sim runs a single dumbbell scenario under a chosen bottleneck
// discipline and prints per-flow goodputs, throughput, and JFI. It is the
// ad-hoc exploration tool; cebinae-bench regenerates the paper's full
// evaluation.
//
// Examples:
//
//	cebinae-sim -bw 100M -buffer 850 -flows newreno:16,cubic:1 -rtt 50ms -qdisc cebinae -duration 30s
//	cebinae-sim -bw 1G -buffer 4200 -flows newreno:128,bbr:1 -rtt 50ms -qdisc fifo -duration 10s
//	cebinae-sim -backbone 100000 -duration 400ms   # 1e5-flow replay tier
//	cebinae-sim -scenario scenarios/multihop.json  # declarative workload
package main

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"cebinae/experiments"
	"cebinae/internal/cli"
	"cebinae/internal/fleet"
	"cebinae/internal/scenario"
	"cebinae/internal/tcp"
)

func main() {
	var (
		bw       = flag.String("bw", "100M", "bottleneck bandwidth (e.g. 100M, 1G, 2.5G)")
		buffer   = flag.Int("buffer", 850, "bottleneck buffer in MTUs (1500 B)")
		flows    = flag.String("flows", "newreno:2", "comma list of cca:count groups (ccas: "+strings.Join(tcp.CCNames(), " ")+")")
		rtt      = flag.String("rtt", "40ms", "comma list of per-group base RTTs (one value applies to all)")
		qdisc    = flag.String("qdisc", "cebinae", "bottleneck discipline: fifo | fq | afq | pcq | strawman | cebinae (-backbone: fifo | cebinae)")
		duration = flag.Duration("duration", 20*time.Second, "simulated duration")
		seed     = flag.Uint64("seed", 42, "simulation seed")
		tau      = flag.Float64("tau", -1, "override Cebinae τ, a fraction in (0, 1) (-1 = default 0.01; -qdisc cebinae only)")
		backbone = flag.Int("backbone", 0, "run the backbone replay tier with this many standing flows (e.g. 100000) instead of the TCP dumbbell")
		specFile = flag.String("scenario", "", "run a declarative scenario file (see scenarios/); the spec owns every knob")
	)
	flag.Parse()

	if *specFile != "" {
		if err := runScenarioFile(*specFile); err != nil {
			cli.Fatal(err)
		}
		return
	}

	c, err := buildScenario(*bw, *buffer, *flows, *rtt, *qdisc, *duration, *seed, *tau, *backbone)
	if err != nil {
		cli.Fatal(err)
	}

	if c.Backbone != nil {
		runBackbone(*c.Backbone)
		return
	}

	s := *c.Dumbbell
	start := time.Now()
	r := experiments.Run(s)
	elapsed := time.Since(start)

	fmt.Printf("%s bottleneck, %d MTU buffer, %s qdisc, %v simulated (%v wall, %d events)\n\n",
		*bw, *buffer, *qdisc, *duration, elapsed.Round(time.Millisecond), r.Events)
	fmt.Printf("%4s %-8s %8s | %12s\n", "flow", "cca", "rtt", "goodput[Mbps]")
	for _, f := range r.Flows {
		fmt.Printf("%4d %-8s %7.1fms | %12.2f\n", f.Index, f.CC, float64(f.RTT)/1e6, f.GoodputBps/1e6)
	}
	fmt.Printf("\nthroughput: %.2f Mbps | aggregate goodput: %.2f Mbps | JFI: %.3f\n",
		r.ThroughputBps/1e6, r.GoodputBps/1e6, r.JFI)
	if s.Qdisc == experiments.Cebinae {
		st := r.CebStats
		fmt.Printf("cebinae: %d rotations, %d recomputes, %d phase changes, %d delayed, %d LBF drops, %d buffer drops, %d ECN marks\n",
			st.Rotations, st.Recomputes, st.PhaseChanges, st.Delayed, st.LBFDrops, st.BufferDrops, st.ECNMarked)
	}
}

// runScenarioFile loads and compiles one declarative scenario file, runs
// its section on a one-worker fleet, and prints its canonical report. A
// job that panics runs once and is reported as an error.
func runScenarioFile(path string) error {
	spec, err := scenario.Load(path)
	if err != nil {
		return err
	}
	c, err := scenario.Compile(spec)
	if err != nil {
		return err
	}
	start := time.Now()
	report, err := experiments.RunSection(c.Section(""), fleet.Options{Parallelism: 1})
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Printf("%s scenario %q (%s)\n", spec.Kind, spec.Name, path)
	fmt.Print(report)
	fmt.Printf("wall: %v\n", elapsed.Round(time.Millisecond))
	return nil
}

// runBackbone drives the replay scale tier from the CLI and prints its
// report.
func runBackbone(cfg experiments.BackboneConfig) {
	start := time.Now()
	r := experiments.RunBackbone(cfg)
	elapsed := time.Since(start)

	fmt.Print(r.Render())
	wallSecs := elapsed.Seconds()
	fmt.Printf("wall: %v (%.0f events/s, %.0f flows/s)\n",
		elapsed.Round(time.Millisecond), float64(r.Events)/wallSecs, float64(r.Finished)/wallSecs)
}

// buildScenario turns the flags into the dumbbell spec they describe and
// compiles it, so every refusal is the scenario validator's. A non-zero
// backbone then swaps in the backbone tier's spec at full scale under
// -qdisc; that spec has no horizon, so the tier takes -duration and -seed
// (0 included) after compiling.
func buildScenario(bw string, buffer int, flows, rtt, qdisc string, duration time.Duration, seed uint64, tau float64, backbone int) (*scenario.Compiled, error) {
	rate, err := scenario.ParseRate(bw)
	if err != nil {
		return nil, fmt.Errorf("-bw: %w", err)
	}
	groups, err := cli.ParseGroups(flows, rtt)
	if err != nil {
		return nil, err
	}
	d := &scenario.DumbbellSpec{
		Rate:        rate,
		BufferBytes: buffer * 1500,
		Groups:      groups,
		Duration:    scenario.Dur(duration),
		Qdisc:       qdisc,
	}
	if tau >= 0 {
		d.Tau = &tau
	}
	c, err := scenario.Compile(&scenario.Spec{Version: scenario.Version, Name: "cli", Kind: "dumbbell", Seed: seed, Dumbbell: d})
	if err != nil || backbone == 0 {
		return c, err
	}
	c, err = scenario.Compile(&scenario.Spec{Version: scenario.Version, Name: "cli", Kind: "backbone", Seed: seed,
		Backbone: &scenario.BackboneSpec{Flows: backbone, Scale: "full", Qdisc: qdisc}})
	if err != nil {
		return nil, err
	}
	cfg := c.Backbone
	cfg.Duration = experiments.SimTime(duration.Nanoseconds())
	cfg.Trace.Duration, cfg.Trace.Seed = cfg.Duration, seed
	return c, cfg.Trace.Validate()
}
