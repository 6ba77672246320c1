// Command benchmark is the repository's benchmark: seven workloads run
// through the entry points the CLIs use, measured from outside — end to
// end, per layer, and with a profiled repeat that connects the two. See
// README.md in this directory and BENCHMARK.json at the repository root.
//
//	go run ./benchmark                       every workload, then the layer drivers
//	go run ./benchmark -o A.json             … and save the run for -compare
//	go run ./benchmark -compare A.json B.json
//	go run ./benchmark --workload W --seed N --seconds S --trace 0|1
//
// The last form is one run of one workload and prints one JSON object as
// its last line of output; it is what the benchmark driver calls.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// defaultSeed is the pinned seed of a run that names none.
const defaultSeed = 1

// driverBatchMs is the length of one timed batch of a layer driver. A
// traced single-workload run repeats every driver, which is why it is not
// the 0.5 s a stand-alone driver run would take.
const driverBatchMs = 60

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "run this one workload and print one JSON result line")
		seed     = fs.Uint64("seed", defaultSeed, "seed every workload's inputs are generated from")
		seconds  = fs.Float64("seconds", 0, "with -workload: how long one run measures (default run_seconds of BENCHMARK.json)")
		traceOn  = fs.Int("trace", 0, "with -workload: 0 measures the end-to-end metrics, 1 the per-layer metrics")
		repeats  = fs.Int("repeats", 5, "without -workload: untraced repeats per workload")
		out      = fs.String("o", "", "without -workload: also write the run as JSON to this file")
		compare  = fs.Bool("compare", false, "compare two saved runs: -compare A.json B.json")
		child    = fs.String("child", "", "internal: execute one child run")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if *child != "" {
		return childMain(root, *child)
	}
	spec, err := loadSpec(root)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare wants two files")
			return 2
		}
		return compareFiles(spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	h := &harness{root: root, exe: exe, scale: 1, driverMs: driverBatchMs, log: stderr}
	if *workload != "" {
		if *seconds <= 0 {
			*seconds = float64(spec.RunSeconds)
		}
		return h.contractRun(*workload, *seed, *seconds, *traceOn != 0, stdout, stderr)
	}
	return h.fullRun(spec, *seed, *repeats, *out, stdout, stderr)
}

// contractResult is the one line a single-workload run ends with.
type contractResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractRun is one run of one workload: the end-to-end metrics from
// untraced repeats filling `seconds`, or — traced — the per-layer metrics
// from a profiled execution, the workload's oracle, and the layer drivers.
func (h *harness) contractRun(name string, seed uint64, seconds float64, traced bool, stdout, stderr io.Writer) int {
	if _, ok := findWorkload(name); !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", name)
		return 2
	}
	wr := &workloadRun{Workload: name, Seed: seed}
	res := contractResult{Metrics: map[string]metricValue{}}
	if traced {
		h.traced(wr)
		drv, err := h.drivers()
		if err != nil {
			wr.Attempted++
			wr.fail([]string{err.Error()})
		}
		for k, v := range drv {
			wr.Layer[k] = v
		}
		layer := fillLayer(wr.Layer)
		for _, d := range layerDefs {
			res.Metrics[d.name] = metricValue{Value: layer[d.name], Unit: d.unit}
		}
	} else {
		h.untraced(wr, func(n int, measured float64) bool {
			return measured >= seconds && (n >= minReps || measured >= 2*seconds)
		})
		for _, d := range contractDefs {
			res.Metrics[d.name] = metricValue{Value: wr.E2E[d.name].Value, Unit: d.unit}
		}
	}
	for _, f := range wr.Faults {
		fmt.Fprintln(stderr, "FAULT", name+":", f)
	}
	if wr.Attempted == 0 || (!traced && wr.E2E == nil) {
		fmt.Fprintln(stderr, "benchmark: no run completed")
		return 1
	}
	res.Attempted, res.Failed, res.Correct = wr.Attempted, wr.Failed, wr.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// savedRun is the JSON a full run writes and -compare reads.
type savedRun struct {
	Manifest  manifest           `json:"manifest"`
	Workloads []*workloadRun     `json:"workloads"`
	Drivers   map[string]float64 `json:"drivers"`
}

// fullRun measures every workload (untraced repeats, then the traced
// run), then the layer drivers once, prints every metric and exits
// non-zero if any correctness check failed.
func (h *harness) fullRun(spec benchSpec, seed uint64, repeats int, outPath string, stdout, stderr io.Writer) int {
	started := time.Now()
	saved := savedRun{Manifest: newManifest(h.root, seed, repeats)}
	failed := 0
	for _, w := range workloads {
		fmt.Fprintf(stderr, "%s\n", w.name)
		wr := &workloadRun{Workload: w.name, Seed: seed}
		h.untraced(wr, func(n int, _ float64) bool { return n >= repeats })
		h.traced(wr)
		saved.Workloads = append(saved.Workloads, wr)
		failed += wr.Failed
	}
	drv, err := h.drivers()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		failed++
	}
	saved.Drivers = drv
	saved.Manifest.WallS = time.Since(started).Seconds()
	printRun(stdout, spec, saved)
	if outPath != "" {
		data, err := json.MarshalIndent(saved, "", "  ")
		if err == nil {
			err = os.WriteFile(outPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "benchmark: %d correctness checks failed\n", failed)
		return 1
	}
	return 0
}
