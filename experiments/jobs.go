package experiments

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"

	"cebinae/internal/fleet"
)

// This file is the one run path. Every independent simulation (each
// Table-2 row, each figure, each extension×discipline cell, each cell of a
// scenario file or a sweep) is a typed Cell; cellJobs turns cells into
// fleet jobs, and a BenchSection pairs those jobs with a renderer that
// reassembles their checkpointed JSON values into report text. Jobs
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
}

// cellJobs wraps cells as fleet jobs under the base ID.
func cellJobs[T any](base, desc string, cells []Cell[T]) []fleet.Job {
	jobs := make([]fleet.Job, len(cells))
	for i, c := range cells {
		id := base
		if id != "" && c.Key != "" {
			id += "/"
		}
		d := desc
		if c.Desc != "" {
			d = c.Desc
		}
		run := c.Run
		jobs[i] = fleet.Job{ID: id + c.Key, Desc: d, Run: func() (any, error) { return run(), nil }}
	}
	return jobs
}

// NewSection builds the section id: its cells run as jobs under
// prefix+id, and render receives their results in cell order.
func NewSection[T any](prefix, id, desc string, cells []Cell[T], render func([]T) string) BenchSection {
	jobs := cellJobs(prefix+id, desc, cells)
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
				if err := json.Unmarshal(raw, &out[i]); err != nil {
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

// DecodeOK decodes the values of a fleet run's successful jobs, skipping
// failed ones, sorted by less for stable output.
func DecodeOK[T any](results []fleet.Result, less func(a, b T) bool) ([]T, error) {
	var out []T
	for _, r := range results {
		if !r.OK {
			continue
		}
		var v T
		if err := json.Unmarshal(r.Value, &v); err != nil {
			return nil, fmt.Errorf("experiments: decode %s: %w", r.ID, err)
		}
		out = append(out, v)
	}
	sort.SliceStable(out, func(i, k int) bool { return less(out[i], out[k]) })
	return out, nil
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
// deterministic unit).
func table2Cells(scale Scale) []Cell[Table2Row] {
	cfgs := Table2Rows()
	cells := make([]Cell[Table2Row], len(cfgs))
	for i, cfg := range cfgs {
		cells[i] = Cell[Table2Row]{Key: fmt.Sprintf("%02d", i), Desc: cfg.Label, Run: func() Table2Row { return RunTable2Row(cfg, scale) }}
	}
	return cells
}

// Fig13Panels bundles both accuracy panels into one JSON-marshalable
// job value.
type Fig13Panels struct {
	A []Fig13Point `json:"a"`
	B []Fig13Point `json:"b"`
}

// BenchSections enumerates the full evaluation (paper + extensions) in
// report order at the given scale.
func BenchSections(scale Scale) []BenchSection {
	ext3 := []QdiscKind{FIFO, FQ, Cebinae}
	pre := jobPrefix(scale)
	return []BenchSection{
		NewSection(pre, "fig1", "RTT unfairness time series (2 NewReno)",
			[]Cell[Fig1Result]{{Run: func() Fig1Result { return Fig1(scale) }}}, Only(Fig1Result.Render)),
		NewSection(pre, "table2", "25-configuration sweep × {FIFO, FQ, Cebinae}",
			table2Cells(scale), RenderTable2),
		NewSection(pre, "fig7", "16 Vegas vs 1 NewReno per-flow goodput",
			[]Cell[Fig7Result]{{Run: func() Fig7Result { return Fig7(scale) }}}, Only(Fig7Result.Render)),
		NewSection(pre, "fig8a", "128 NewReno vs 2 BBR goodput CDF",
			[]Cell[Fig8Result]{{Run: func() Fig8Result { return Fig8a(scale) }}}, Only(Fig8Result.Render)),
		NewSection(pre, "fig8b", "128 NewReno vs 4 Vegas goodput CDF",
			[]Cell[Fig8Result]{{Run: func() Fig8Result { return Fig8b(scale) }}}, Only(Fig8Result.Render)),
		NewSection(pre, "fig9", "RTT-asymmetry sweep (Cubic, 400 Mbps)",
			[]Cell[[]Fig9Point]{{Run: func() []Fig9Point { return Fig9(scale) }}}, Only(RenderFig9)),
		NewSection(pre, "fig10", "JFI time series with flow arrivals",
			[]Cell[Fig10Result]{{Run: func() Fig10Result { return Fig10(scale) }}}, Only(Fig10Result.Render)),
		NewSection(pre, "fig11", "parking-lot multi-bottleneck vs ideal max-min",
			[]Cell[Fig11Result]{{Run: func() Fig11Result { return Fig11(scale) }}}, Only(Fig11Result.Render)),
		NewSection(pre, "fig12", "threshold sensitivity sweep",
			[]Cell[Fig12Result]{{Run: func() Fig12Result { return Fig12(scale) }}}, Only(Fig12Result.Render)),
		NewSection(pre, "table3", "Tofino resource usage model",
			[]Cell[[]Table3Row]{{Run: Table3}}, Only(RenderTable3)),
		NewSection(pre, "fig13", "heavy-hitter detection FPR/FNR",
			[]Cell[Fig13Panels]{{Run: func() Fig13Panels {
				cfg := DefaultFig13Config(scale)
				return Fig13Panels{A: Fig13a(cfg), B: Fig13b(cfg)}
			}}},
			Only(func(p Fig13Panels) string { return RenderFig13(p.A, p.B) })),
		NewSection(pre, "ext-churn", "[extension] short-flow FCT under churn",
			kindCells(ext3, func(k QdiscKind) ExtChurnResult { return ExtChurn(k, scale) }), RenderExtChurn),
		NewSection(pre, "ext-udp", "[extension] blind-UDP containment",
			kindCells(ext3, func(k QdiscKind) ExtBlindUDPResult { return ExtBlindUDP(k, scale) }), RenderExtBlindUDP),
		NewSection(pre, "ext-perflow", "[extension] §7 per-flow ⊤ ablation",
			[]Cell[ExtPerFlowResult]{{Run: func() ExtPerFlowResult { return ExtPerFlow(scale) }}}, Only(RenderExtPerFlow)),
		NewSection(pre, "ext-scalability", "[extension] Eq.1 scalability: AFQ vs Cebinae RTT sweep",
			[]Cell[[]ScalabilityPoint]{{Run: func() []ScalabilityPoint { return ExtScalability(scale) }}}, Only(RenderExtScalability)),
		NewSection(pre, "ext-strawman", "[extension] §3.2 strawman vs Cebinae redistribution",
			kindCells([]QdiscKind{FIFO, Strawman, Cebinae}, func(k QdiscKind) ExtStrawmanResult { return ExtStrawman(k, scale) }), RenderExtStrawman),
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
			return nil, fmt.Errorf("experiments: job %s failed after %d attempt(s): %s", id, r.Attempts, r.Err)
		}
		return r.Value, nil
	}
}
