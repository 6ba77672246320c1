package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"cebinae/experiments"
	"cebinae/internal/core"
	"cebinae/internal/fleet"
	"cebinae/internal/scenario"
)

// A workload is one named set of inputs. Its traffic lives in
// workloads/<name>.json in the internal/scenario format wherever that
// format can say it, loaded through scenario.Load → Compile so set-up time
// covers the path a CLI user takes; the knobs below are the few things the
// format cannot say, each with its reason.
type workload struct {
	name string
	// spec is the file under workloads/, "" when no spec kind fits.
	spec string
	// shards: the serial twin loads the same file, so the shard count is
	// the one knob that differs; it is applied the way the CLIs' -shards
	// flag is (Compiled.SetShards).
	shards int
	// accessBps, fastForward: the dumbbell kind has no access-rate or
	// accelerator field (both are CLI/Go-only today).
	accessBps   float64
	fastForward bool
	// backboneScale: the backbone kind only names quick/medium/full; the
	// sized horizon is 4× full, and the trace seed is not a spec field.
	backboneScale float64
	// section: the report is not a scenario at all but one section of
	// experiments.BenchSections, picked by ID.
	section string
}

var workloads = []workload{
	{name: "dumbbell_cebinae_1g", spec: "dumbbell_cebinae_1g.json"},
	{name: "dumbbell_fifo_1g", spec: "dumbbell_fifo_1g.json"},
	{name: "table2_10g_cebinae", spec: "table2_10g_cebinae.json"},
	{name: "chain_sharded_2", spec: "chain_sharded_2.json", shards: 2},
	{name: "backbone_replay_1e5", spec: "backbone_replay_1e5.json", backboneScale: 4},
	{name: "fastforward_bbr_1200s", spec: "fastforward_bbr_1200s.json", accessBps: 20e6, fastForward: true},
	{name: "table2_report_quick", section: "table2"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// outcome is what one execution of a workload's timed region produced,
// read from the public result fields only.
type outcome struct {
	// SimS is the simulated time covered (sum of job horizons for the
	// report).
	SimS   float64 `json:"sim_s"`
	Events uint64  `json:"events"`
	// MB is the payload the network carried, the denominator of
	// events_per_mb; 0 where the result does not expose it.
	MB float64 `json:"mb"`
	// JFI is 0 where the result has none (backbone).
	JFI         float64 `json:"jfi"`
	GoodputFrac float64 `json:"goodput_frac"`
	// Digest is sha256 over the canonical Report()/Render() bytes.
	Digest string `json:"digest"`
	// Flows are per-flow goodputs, kept for the fast-forward error check.
	Flows []float64 `json:"flows,omitempty"`
	// Counts are the run-derived per-layer metrics.
	Counts map[string]float64 `json:"counts"`
	// Faults are failed range checks (see checks.go).
	Faults []string `json:"faults,omitempty"`
}

// variant selects which execution of a workload a child performs.
type variant struct {
	// reference runs the workload's oracle instead of the workload: the
	// serial twin of the sharded chain, the exact packet-level twin of
	// the fast-forward cell.
	reference bool
	// scale multiplies every horizon; 1 in measured runs, small in the
	// self-tests.
	scale float64
}

// prepare does everything before the timed region — load, validate,
// compile, patch, enumerate jobs — and returns the timed region as a
// closure.
func (w workload) prepare(root string, seed uint64, v variant) (func() (outcome, error), error) {
	if w.section != "" {
		return w.prepareReport(v)
	}
	spec, err := scenario.Load(filepath.Join(root, "benchmark", "workloads", w.spec))
	if err != nil {
		return nil, err
	}
	spec.Seed = seed
	c, err := scenario.Compile(spec)
	if err != nil {
		return nil, err
	}
	if w.shards > 0 && !v.reference {
		c.SetShards(w.shards)
	}
	switch {
	case c.Dumbbell != nil:
		s := *c.Dumbbell
		s.Duration = scaleTime(s.Duration, v.scale)
		s.AccessBps = w.accessBps
		s.FastForward = w.fastForward && !v.reference
		return func() (outcome, error) { return dumbbellOutcome(experiments.Run(s), w.fastForward), nil }, nil
	case c.Chain != nil:
		cfg := *c.Chain
		cfg.Duration = scaleTime(cfg.Duration, v.scale)
		return func() (outcome, error) { return chainOutcome(cfg, experiments.RunChain(cfg)), nil }, nil
	case c.Backbone != nil:
		cfg := experiments.BackboneTier(c.Backbone.Flows, experiments.Scale(w.backboneScale*v.scale))
		cfg.Qdisc = c.Backbone.Qdisc
		cfg.Shards = c.Backbone.Shards
		cfg.Trace.Seed = seed
		return func() (outcome, error) { return backboneOutcome(experiments.RunBackbone(cfg)), nil }, nil
	}
	return nil, fmt.Errorf("workload %s: spec kind %q has no runner here", w.name, spec.Kind)
}

func scaleTime(t experiments.SimTime, scale float64) experiments.SimTime {
	return experiments.Seconds(t.Seconds() * scale)
}

func digestOf(report string) string {
	sum := sha256.Sum256([]byte(report))
	return hex.EncodeToString(sum[:])
}

func dumbbellOutcome(r experiments.Result, wantFF bool) outcome {
	s := r.Scenario
	dur := s.Duration.Seconds()
	o := outcome{
		SimS:        dur,
		Events:      r.Events,
		MB:          r.ThroughputBps * dur / 8e6,
		JFI:         r.JFI,
		GoodputFrac: r.GoodputBps / s.BottleneckBps,
		Digest:      digestOf(r.Report()),
		Counts:      coreCounts(r.CebStats, dur),
	}
	for _, f := range r.Flows {
		o.Flows = append(o.Flows, f.GoodputBps)
	}
	o.Counts["netem.btl_util_frac"] = r.ThroughputBps / s.BottleneckBps
	o.Counts["fluid.skipped_frac"] = r.FF.SkippedTime.Seconds() / dur
	o.Counts["fluid.arms"] = float64(r.FF.Arms)
	o.Counts["fluid.disarms"] = float64(r.FF.Disarms)
	o.Counts["fluid.skips"] = float64(r.FF.Skips)
	o.Faults = checkRanges(o)
	if wantFF && s.FastForward && r.FF.ForcedOff {
		o.Faults = append(o.Faults, "fast-forward was forced off")
	}
	return o
}

func coreCounts(st core.Stats, simS float64) map[string]float64 {
	return map[string]float64{
		"core.enqueued":       float64(st.Enqueued),
		"core.lbf_drops":      float64(st.LBFDrops),
		"core.buffer_drops":   float64(st.BufferDrops),
		"core.delayed":        float64(st.Delayed),
		"core.rotations":      float64(st.Rotations),
		"core.recomputes":     float64(st.Recomputes),
		"core.phase_changes":  float64(st.PhaseChanges),
		"core.saturated_frac": st.SaturatedTime.Seconds() / simS,
	}
}

func chainOutcome(cfg experiments.ChainConfig, r experiments.ChainResult) outcome {
	dur := cfg.Duration.Seconds()
	var sum float64
	for _, g := range r.Goodputs() {
		sum += g
	}
	o := outcome{
		SimS:        dur,
		Events:      r.Events,
		MB:          sum * dur / 8e6,
		JFI:         r.JFI,
		GoodputFrac: sum / (float64(cfg.Hops) * cfg.BottleneckBps),
		Digest:      digestOf(r.Report()),
		// ChainResult exposes no per-port Cebinae statistics.
		Counts: map[string]float64{},
	}
	o.Faults = checkRanges(o)
	return o
}

func backboneOutcome(r experiments.BackboneResult) outcome {
	dur := r.Config.Duration.Seconds()
	o := outcome{
		SimS:        dur,
		Events:      r.Events,
		MB:          float64(r.CoreTxBytes) / 1e6,
		GoodputFrac: r.UtilizationPct / 100,
		Digest:      digestOf(r.Render()),
		Counts:      coreCounts(r.CebStats, dur),
	}
	o.Counts["netem.btl_util_frac"] = r.UtilizationPct / 100
	o.Counts["replay.sent_pkts"] = float64(r.SentPackets)
	o.Counts["replay.core_drop_frac"] = float64(r.CoreDropPkts) / float64(r.SentPackets)
	o.Counts["replay.feedbacks"] = float64(r.Feedbacks)
	o.Counts["replay.rate_cuts"] = float64(r.RateCuts)
	o.Counts["replay.peak_active"] = float64(r.PeakActive)
	o.Counts["hhcache.recall_topk"] = r.CacheRecallTopK
	o.Counts["cmsketch.overestimate_pct"] = r.SketchOverestimatePct
	o.Counts["maxmin.flows"] = float64(r.MaxMinFlows)
	o.Faults = checkRanges(o)
	o.Faults = append(o.Faults, checkBackbone(r.SketchUnderestimates, r.PeakActive, r.Config.Flows)...)
	return o
}

// prepareReport enumerates the report section's jobs. At scale < 1 (the
// self-tests) it keeps the first two Table 2 rows, rebuilt from the same
// public row runner and renderer the section uses: table2 floors every
// cell at 2 simulated seconds, so the full 75-cell section cannot shrink
// to a test budget.
func (w workload) prepareReport(v variant) (func() (outcome, error), error) {
	var sec experiments.BenchSection
	scale := experiments.Quick
	if v.scale < 1 {
		sec = miniTable2(scale)
	} else {
		found := false
		for _, s := range experiments.BenchSections(scale) {
			if s.ID == w.section {
				sec, found = s, true
			}
		}
		if !found {
			return nil, fmt.Errorf("workload %s: BenchSections has no section %q", w.name, w.section)
		}
	}
	return func() (outcome, error) { return runReport(sec, scale) }, nil
}

func miniTable2(scale experiments.Scale) experiments.BenchSection {
	cfgs := experiments.Table2Rows()[:2]
	sec := experiments.BenchSection{ID: "table2"}
	for i, cfg := range cfgs {
		sec.Jobs = append(sec.Jobs, fleet.Job{
			ID:  fmt.Sprintf("mini/table2/%02d", i),
			Run: func() (any, error) { return experiments.RunTable2Row(cfg, scale), nil },
		})
	}
	sec.Render = func(get experiments.Getter) (string, error) {
		rows := make([]experiments.Table2Row, len(cfgs))
		for i := range cfgs {
			raw, err := get(sec.Jobs[i].ID)
			if err != nil {
				return "", err
			}
			if err := json.Unmarshal(raw, &rows[i]); err != nil {
				return "", err
			}
		}
		return experiments.RenderTable2(rows), nil
	}
	return sec
}

// runReport is the report's timed region: the section's jobs through
// fleet.Run at the host's parallelism, JSON round-trip included, then
// rendered.
func runReport(sec experiments.BenchSection, scale experiments.Scale) (outcome, error) {
	sum, err := fleet.Run(sec.Jobs, fleet.Options{Parallelism: procs()})
	if err != nil {
		return outcome{}, err
	}
	text, err := sec.Render(experiments.SummaryGetter(sum))
	if err != nil && sum.Failed == 0 {
		return outcome{}, err
	}
	o := outcome{Digest: digestOf(text), Counts: map[string]float64{}}
	kinds := []experiments.QdiscKind{experiments.FIFO, experiments.FQ, experiments.Cebinae}
	var cells, cebCells int
	var longest time.Duration
	for _, res := range sum.Results {
		if res.Wall > longest {
			longest = res.Wall
		}
		var row experiments.Table2Row
		if !res.OK || json.Unmarshal(res.Value, &row) != nil {
			continue
		}
		for _, k := range kinds {
			o.SimS += experiments.Table2Scenario(row.Config, k, scale).Duration.Seconds()
			o.GoodputFrac += row.Cells[k].GoodputBps / row.Config.BtlBps
			cells++
		}
		o.JFI += row.Cells[experiments.Cebinae].JFI
		cebCells++
	}
	if cells > 0 {
		o.GoodputFrac /= float64(cells)
		o.JFI /= float64(cebCells)
	}
	o.Counts["fleet.jobs"] = float64(len(sum.Results))
	o.Counts["fleet.speedup"] = sum.Speedup()
	o.Counts["fleet.longest_job_s"] = longest.Seconds()
	// The share of worker-seconds spent idle: 1 − Work ÷ (Elapsed × p).
	// Once the pool drains the slowest row runs alone, so this is the
	// makespan's tail.
	if sum.Elapsed > 0 {
		o.Counts["fleet.tail_idle_frac"] = 1 - sum.Work.Seconds()/(sum.Elapsed.Seconds()*float64(procs()))
	}
	o.Faults = checkReport(o, sum.Failed)
	return o, nil
}
