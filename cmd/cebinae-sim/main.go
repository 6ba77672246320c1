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
//
// Every run is a section's cell run through the runner every CLI uses
// (internal/cli); the wall times printed are the jobs' own.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
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
		specFile = flag.String("scenario", "", "run declarative scenario files, a comma list of files or globs (see scenarios/); the spec owns every knob")
	)
	flag.Parse()

	cli.Main("", "", func() error {
		if *specFile != "" {
			return runScenarios(os.Stdout, *specFile)
		}
		c, err := buildScenario(*bw, *buffer, *flows, *rtt, *qdisc, *duration, *seed, *tau, *backbone)
		if err != nil {
			return err
		}
		if c.Dumbbell != nil {
			return runDumbbell(*c.Dumbbell, fmt.Sprintf("%s bottleneck, %d MTU buffer, %s qdisc, %v simulated", *bw, *buffer, *qdisc, *duration))
		}
		cfg := *c.Backbone
		r, wall, err := cli.RunCell(func() experiments.BackboneResult { return experiments.RunBackbone(cfg) }, os.Stderr)
		if err != nil {
			return err
		}
		fmt.Print(r.Render())
		fmt.Printf("wall: %v (%.0f events/s, %.0f flows/s)\n",
			wall.Round(time.Millisecond), float64(r.Events)/wall.Seconds(), float64(r.Finished)/wall.Seconds())
		return nil
	})
}

// runDumbbell runs the flag-built dumbbell as one cell through the runner
// and prints its per-flow table under header.
func runDumbbell(s experiments.Scenario, header string) error {
	r, wall, err := cli.RunCell(func() experiments.Result { return experiments.Run(s) }, os.Stderr)
	if err != nil {
		return err
	}
	fmt.Printf("%s (%v wall, %d events)\n\n", header, wall.Round(time.Millisecond), r.Events)
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
	return nil
}

// runScenarios runs every spec file patterns matches (a comma list of
// files or globs, as every -scenario flag takes) as its section through
// the runner on one worker, and prints each file's canonical report under
// a header naming it, then the wall time its jobs took.
func runScenarios(w io.Writer, patterns string) error {
	files, err := scenario.LoadFiles(patterns)
	if err != nil {
		return err
	}
	for _, f := range files {
		sec := f.Section("")
		get, sum, err := cli.Run([]experiments.BenchSection{sec}, fleet.Options{Parallelism: 1}, os.Stderr)
		if err != nil {
			return err
		}
		report, err := sec.Render(get)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s scenario %q (%s)\n%swall: %v\n", f.Spec.Kind, f.Spec.Name, f.Path, report, sum.Work.Round(time.Millisecond))
	}
	return nil
}

// buildScenario turns the flags into the dumbbell spec they describe and
// compiles it, so every refusal is the scenario validator's. A non-zero
// backbone then swaps in the backbone tier's spec at full scale under
// -qdisc; that spec has no horizon, so the tier takes -duration and -seed
// (0 included) after compiling.
func buildScenario(bw string, buffer int, flows, rtt, qdisc string, duration time.Duration, seed uint64, tau float64, backbone int) (*scenario.Compiled, error) {
	spec, err := cli.DumbbellSpec("cli", seed, bw, buffer, flows, rtt, qdisc, duration)
	if err != nil {
		return nil, err
	}
	if tau >= 0 {
		spec.Dumbbell.Tau = &tau
	}
	c, err := scenario.Compile(spec)
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
