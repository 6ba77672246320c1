package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"cebinae/internal/fleet"
)

// This file is the one run path. Every independent simulation (each run of
// a figure's scenario list, each Table-2 row, each extension×discipline
// cell, each cell of a scenario file or a grid) is a typed Cell; NewSection
// turns cells into fleet jobs and pairs them with a renderer that
// reassembles their checkpointed JSON values into report text. A cell's
// value is the runner's own record (Result, ChainResult, BackboneResult,
// Fig13Point), so everything a figure or grid derives from it —
// CDFs, normalised JFI, reference lines — is computed at render time. Jobs
// construct their own sim.Engine inside the closure, so results are
// independent of worker count and scheduling order. Job IDs are the
// checkpoint contract: a -resume store is keyed by them, so they must not
// move (testdata/job_ids.txt pins them).

// Getter fetches the stored JSON value of one job by ID, failing if the
// job failed or was never run.
type Getter func(jobID string) (json.RawMessage, error)

// BenchSection is one report section: the fleet jobs that measure it and
// the renderer that assembles their results into the section's text.
type BenchSection struct {
	ID     string
	Desc   string
	Jobs   []fleet.Job
	Render func(get Getter) (string, error)
}

// Cell is one independent simulation returning a T.
type Cell[T any] struct {
	// Key names the cell within its section; its job ID is the section's
	// base ID, a '/', and Key (either side may be empty, and then so is
	// the '/').
	Key string
	// Desc describes the job; empty takes the section's description.
	Desc string
	Run  func() T
	// Cost is the job's fleet.Job.Cost: its expected run time relative to
	// its section's other cells, zero where the cells are alike.
	Cost float64
}

// NewSection builds the section id: its cells run as jobs under
// prefix+id, and render receives their results in cell order. A stored
// value must decode into T field for field: a value of another schema (a
// store written by an older release) is an error naming its job and the
// unknown field, never a zero record.
func NewSection[T any](prefix, id, desc string, cells []Cell[T], render func([]T) string) BenchSection {
	base := prefix + id
	jobs := make([]fleet.Job, len(cells))
	for i, c := range cells {
		jid := base
		if jid != "" && c.Key != "" {
			jid += "/"
		}
		d := desc
		if c.Desc != "" {
			d = c.Desc
		}
		run := c.Run
		jobs[i] = fleet.Job{ID: jid + c.Key, Desc: d, Run: func() (any, error) { return run(), nil }, Cost: c.Cost}
	}
	return BenchSection{
		ID:   id,
		Desc: desc,
		Jobs: jobs,
		Render: func(get Getter) (string, error) {
			out := make([]T, len(jobs))
			for i, j := range jobs {
				raw, err := get(j.ID)
				if err != nil {
					return "", err
				}
				dec := json.NewDecoder(bytes.NewReader(raw))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&out[i]); err != nil {
					return "", fmt.Errorf("experiments: decode %s: %w", j.ID, err)
				}
			}
			return render(out), nil
		},
	}
}

// Only adapts a one-result renderer to a one-cell section.
func Only[T any](render func(T) string) func([]T) string {
	return func(v []T) string { return render(v[0]) }
}

// ParseScale reads a horizon scale: quick, medium, full, or a fraction of
// the paper's horizons in (0, 1].
func ParseScale(s string) (Scale, error) {
	switch s {
	case "quick":
		return Quick, nil
	case "medium":
		return Medium, nil
	case "full":
		return Full, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || v <= 0 || v > 1 {
		return 0, fmt.Errorf("bad scale %q (want quick|medium|full or a fraction in (0,1])", s)
	}
	return Scale(v), nil
}

// jobPrefix keys checkpoint IDs by scale, so a store written at one
// -scale is never silently reused by a resume at another.
func jobPrefix(scale Scale) string { return fmt.Sprintf("s%g/", float64(scale)) }

// runCells makes one cell per run of section id, in run order. Each run
// is named "<id>/<key>" (Scenario.Name, ChainConfig.Name), so its job ID
// is the scale prefix plus its name.
func runCells[R, T any](id string, runs []R, name func(R) string, run func(R) T) []Cell[T] {
	cells := make([]Cell[T], len(runs))
	for i, r := range runs {
		cells[i] = Cell[T]{Key: strings.TrimPrefix(name(r), id+"/"), Run: func() T { return run(r) }}
	}
	return cells
}

// kindCells fans one experiment out over qdisc kinds, one cell per kind.
func kindCells[T any](kinds []QdiscKind, run func(QdiscKind) T) []Cell[T] {
	cells := make([]Cell[T], len(kinds))
	for i, k := range kinds {
		cells[i] = Cell[T]{Key: string(k), Run: func() T { return run(k) }}
	}
	return cells
}

// table2Cells fans Table 2 out one cell per configuration row (each row
// still measures its three disciplines, keeping the row a self-contained
// deterministic unit). A row's cost is the bits its bottleneck can carry
// over its horizon, so the fleet starts the 10 G rows first, then the 1 G
// rows, then the 100 M rows.
func table2Cells(scale Scale) []Cell[Table2Row] {
	cfgs := Table2Rows()
	cells := make([]Cell[Table2Row], len(cfgs))
	for i, cfg := range cfgs {
		cells[i] = Cell[Table2Row]{
			Key:  fmt.Sprintf("%02d", i),
			Desc: cfg.Label,
			Run:  func() Table2Row { return RunTable2Row(cfg, scale) },
			Cost: cfg.BtlBps * table2Duration(cfg.BtlBps, scale).Seconds(),
		}
	}
	return cells
}

// BenchSections enumerates the full evaluation (paper + extensions) in
// report order at the given scale. Every section but table2 is one cell
// per simulation; a table2 cell is a whole row (its three disciplines),
// the unit its renderer and its stored results are keyed by.
func BenchSections(scale Scale) []BenchSection {
	ext3 := []QdiscKind{FIFO, FQ, Cebinae}
	pre := jobPrefix(scale)
	dumbbell := func(id, desc string, runs []Scenario, render func([]Result) string) BenchSection {
		return NewSection(pre, id, desc, runCells(id, runs, func(s Scenario) string { return s.Name }, Run), render)
	}
	return []BenchSection{
		dumbbell("fig1", "RTT unfairness time series (2 NewReno)", Fig1Scenarios(scale), RenderFig1),
		NewSection(pre, "table2", "25-configuration sweep × {FIFO, FQ, Cebinae}",
			table2Cells(scale), RenderTable2),
		dumbbell("fig7", "16 Vegas vs 1 NewReno per-flow goodput", Fig7Scenarios(scale), RenderFig7),
		dumbbell("fig8a", "128 NewReno vs 2 BBR goodput CDF", Fig8aScenarios(scale), RenderFig8),
		dumbbell("fig8b", "128 NewReno vs 4 Vegas goodput CDF", Fig8bScenarios(scale), RenderFig8),
		dumbbell("fig9", "RTT-asymmetry sweep (Cubic, 400 Mbps)", Fig9Scenarios(scale), RenderFig9),
		dumbbell("fig10", "JFI time series with flow arrivals", Fig10Scenarios(scale), RenderFig10),
		NewSection(pre, "fig11", "parking-lot multi-bottleneck vs ideal max-min",
			runCells("fig11", Fig11Chains(scale), func(c ChainConfig) string { return c.Name }, RunChain), RenderFig11),
		dumbbell("fig12", "threshold sensitivity sweep", Fig12Scenarios(scale), RenderFig12),
		NewSection(pre, "table3", "Tofino resource usage model",
			[]Cell[[]Table3Row]{{Run: Table3}}, Only(RenderTable3)),
		NewSection(pre, "fig13", "heavy-hitter detection FPR/FNR", fig13Cells(scale), RenderFig13),
		NewSection(pre, "ext-churn", "[extension] short-flow FCT under churn",
			kindCells(ext3, func(k QdiscKind) ExtChurnResult { return ExtChurn(k, scale) }), RenderExtChurn),
		NewSection(pre, "ext-udp", "[extension] blind-UDP containment",
			kindCells(ext3, func(k QdiscKind) ExtBlindUDPResult { return ExtBlindUDP(k, scale) }), RenderExtBlindUDP),
		dumbbell("ext-perflow", "[extension] §7 per-flow ⊤ ablation", ExtPerFlowScenarios(scale), RenderExtPerFlow),
		dumbbell("ext-scalability", "[extension] Eq.1 scalability: AFQ vs Cebinae RTT sweep", ExtScalabilityScenarios(scale), RenderExtScalability),
		dumbbell("ext-strawman", "[extension] §3.2 strawman vs Cebinae redistribution", ExtStrawmanScenarios(scale), RenderExtStrawman),
		NewSection(pre, "backbone", "[extension] backbone tier: 1e5-flow trace replay through Cebinae @10G",
			[]Cell[BackboneResult]{{Run: func() BackboneResult { return RunBackbone(BackboneTier(100_000, scale)) }}}, Only(BackboneResult.Render)),
	}
}

// SectionJobs flattens the sections' jobs in order.
func SectionJobs(sections []BenchSection) []fleet.Job {
	var jobs []fleet.Job
	for _, s := range sections {
		jobs = append(jobs, s.Jobs...)
	}
	return jobs
}

// SummaryGetter adapts a fleet run summary into a Getter for section
// rendering.
func SummaryGetter(sum *fleet.Summary) Getter {
	return func(id string) (json.RawMessage, error) {
		r, ok := sum.Get(id)
		if !ok {
			return nil, fmt.Errorf("experiments: job %s was not run", id)
		}
		if !r.OK {
			return nil, fmt.Errorf("experiments: job %s failed: %s", id, r.Err)
		}
		return r.Value, nil
	}
}
