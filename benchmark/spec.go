package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// benchSpec mirrors BENCHMARK.json, the one place that fixes which
// workloads and metrics exist and how far an end-to-end metric may
// worsen before it counts as a regression.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the base median an end-to-end metric may
	// worsen by; per-layer metrics have none.
	Bound float64 `json:"bound,omitempty"`
}

// findRoot walks up from the working directory to the directory holding
// BENCHMARK.json: the checkout root under `go run ./benchmark`, two
// levels up under `go test`.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json in the working directory or above it")
		}
		dir = parent
	}
}

func loadSpec(root string) (benchSpec, error) {
	var s benchSpec
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return s, nil
}

func (s benchSpec) bound(metric string) float64 {
	for _, m := range s.EndToEnd {
		if m.Name == metric {
			return m.Bound
		}
	}
	return 0
}

// metricDef is one metric the harness emits. BENCHMARK.json must list
// exactly these (spec_test.go holds the two together), except the
// end-to-end metrics marked harnessOnly.
type metricDef struct {
	name, unit, better string
	// agg is how an end-to-end metric is reduced over a run's repeats.
	agg aggregate
	// of reads an end-to-end metric off one repeat; 0 where the workload
	// does not define it.
	of func(rep) float64

	// What follows is what BENCHMARK.json cannot say about an end-to-end
	// metric, and -compare needs.

	// harnessOnly metrics are printed by the full run and judged by
	// -compare but are not in BENCHMARK.json, which admits only metrics
	// that every workload defines.
	harnessOnly bool
	// simulated metrics repeat exactly for a given seed, and -compare pairs
	// repeats by seed: it holds them to rel and abs below, not to the
	// file's bound, which has to cover the spread across seeds.
	simulated bool
	// rel is the relative bound of a simulated metric.
	rel float64
	// abs is an absolute slack in the metric's unit: a change counts only
	// if it exceeds the relative bound and this.
	abs float64
}

type aggregate int

const (
	// aggMedian is for host-side figures, whose noise is what the
	// repeats are there to remove.
	aggMedian aggregate = iota
	// aggMean is for the figures that repeat (almost) exactly for a given
	// seed — simulated results, allocation counts, peak memory: little but
	// the repeats' differing seeds moves them, and they move in steps
	// (a sample slice crossing a growth threshold), so the mean is the
	// steadier estimate where a median would jump.
	aggMean
)

// End-to-end metrics: what someone running the simulator waits for, pays,
// or reads off the result. failed_frac, the tenth, is not reduced from
// repeats and is handled where runs are counted.
var e2eDefs = []metricDef{
	{name: "wall_s", unit: "s", better: "lower", of: func(r rep) float64 { return r.WallS }},
	{name: "sim_s_per_wall_s", unit: "ratio", better: "higher", of: func(r rep) float64 { return r.SimS / r.WallS }},
	{name: "events_per_mb", unit: "count", better: "lower", agg: aggMean, harnessOnly: true, simulated: true, rel: 0.005, of: rep.eventsPerMB},
	{name: "alloc_mb", unit: "MB", better: "lower", agg: aggMean, of: func(r rep) float64 { return r.AllocMB }},
	{name: "allocs_k", unit: "1e3", better: "lower", agg: aggMean, abs: 1, of: func(r rep) float64 { return r.AllocsK }},
	{name: "peak_rss_mb", unit: "MB", better: "lower", agg: aggMean, of: func(r rep) float64 { return r.PeakRSSMB }},
	{name: "setup_s", unit: "s", better: "lower", abs: 0.05, of: func(r rep) float64 { return r.SetupS }},
	{name: "jfi", unit: "ratio", better: "higher", agg: aggMean, harnessOnly: true, simulated: true, abs: 0.01, of: func(r rep) float64 { return r.JFI }},
	{name: "goodput_frac", unit: "ratio", better: "higher", agg: aggMean, simulated: true, abs: 0.01, of: func(r rep) float64 { return r.GoodputFrac }},
}

// contractDefs are the end-to-end metrics BENCHMARK.json lists and a
// single-workload run prints.
var contractDefs = func() []metricDef {
	var defs []metricDef
	for _, d := range e2eDefs {
		if !d.harnessOnly {
			defs = append(defs, d)
		}
	}
	return defs
}()

// rel is the relative bound -compare holds metric d to: the harness's own
// for a simulated metric, BENCHMARK.json's otherwise.
func (s benchSpec) rel(d metricDef) float64 {
	if d.simulated {
		return d.rel
	}
	return s.bound(d.name)
}

// slack is how far metric d may worsen from base before -compare calls it
// a regression, in the metric's unit.
func (s benchSpec) slack(d metricDef, base float64) float64 {
	return max(s.rel(d)*math.Abs(base), d.abs)
}

// boundText is a metric's -compare bound as the harness prints it.
func (s benchSpec) boundText(d metricDef) string {
	switch rel := s.rel(d); {
	case rel > 0 && d.abs > 0:
		return fmt.Sprintf("%g%% and %g %s", 100*rel, d.abs, d.unit)
	case rel > 0:
		return fmt.Sprintf("%g%%", 100*rel)
	}
	return fmt.Sprintf("%g absolute", d.abs)
}

// Per-layer metrics, in three groups (see README): counts read from the
// run's public result fields, CPU shares from the profiled run, and unit
// costs from the layer drivers.
var layerDefs = concat(runDefs, cpuDefs, driverDefs)

var runDefs = []metricDef{
	{name: "experiments.wall_raw_s", unit: "s", better: "lower"},
	{name: "experiments.events", unit: "count", better: "lower"},
	{name: "experiments.ns_per_event", unit: "ns", better: "lower"},
	{name: "experiments.events_per_mb", unit: "count", better: "lower"},
	{name: "experiments.jfi", unit: "ratio", better: "higher"},
	{name: "core.enqueued", unit: "count", better: "higher"},
	{name: "core.lbf_drops", unit: "count", better: "lower"},
	{name: "core.buffer_drops", unit: "count", better: "lower"},
	{name: "core.delayed", unit: "count", better: "lower"},
	{name: "core.rotations", unit: "count", better: "lower"},
	{name: "core.recomputes", unit: "count", better: "lower"},
	{name: "core.phase_changes", unit: "count", better: "lower"},
	{name: "core.saturated_frac", unit: "ratio", better: "higher"},
	{name: "netem.btl_util_frac", unit: "ratio", better: "higher"},
	{name: "replay.sent_pkts", unit: "count", better: "higher"},
	{name: "replay.core_drop_frac", unit: "ratio", better: "lower"},
	{name: "replay.feedbacks", unit: "count", better: "lower"},
	{name: "replay.rate_cuts", unit: "count", better: "lower"},
	{name: "replay.peak_active", unit: "count", better: "higher"},
	{name: "hhcache.recall_topk", unit: "ratio", better: "higher"},
	{name: "cmsketch.overestimate_pct", unit: "%", better: "lower"},
	{name: "maxmin.flows", unit: "count", better: "higher"},
	{name: "fluid.skipped_frac", unit: "ratio", better: "higher"},
	{name: "fluid.arms", unit: "count", better: "higher"},
	{name: "fluid.disarms", unit: "count", better: "lower"},
	{name: "fluid.skips", unit: "count", better: "higher"},
	{name: "fluid.events_x", unit: "ratio", better: "higher"},
	{name: "fluid.speedup", unit: "ratio", better: "higher"},
	{name: "fluid.err_pct", unit: "%", better: "lower"},
	{name: "fleet.jobs", unit: "count", better: "higher"},
	{name: "fleet.speedup", unit: "ratio", better: "higher"},
	{name: "fleet.longest_job_s", unit: "s", better: "lower"},
	{name: "fleet.tail_idle_frac", unit: "ratio", better: "lower"},
}

// cpuLayers are the packages the profile is attributed to, in report
// order; everything else lands in other.cpu_pct or a runtime.* bucket.
var cpuLayers = []string{
	"sim", "packet", "netem", "qdisc", "core", "tcp", "metrics", "replay",
	"hhcache", "cmsketch", "shard", "fluid", "fleet", "experiments",
}

var cpuDefs = func() []metricDef {
	var defs []metricDef
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{name: l + ".cpu_pct", unit: "%", better: "lower"})
	}
	for _, n := range []string{"other.cpu_pct", "runtime.gc_pct", "runtime.malloc_pct", "runtime.sched_pct", "runtime.other_pct", "trace.overhead_pct", "trace.host_slowdown_pct"} {
		defs = append(defs, metricDef{name: n, unit: "%", better: "lower"})
	}
	return defs
}()

func concat(groups ...[]metricDef) []metricDef {
	var out []metricDef
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}
