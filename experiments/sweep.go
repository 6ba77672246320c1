package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"cebinae/internal/core"
	"cebinae/internal/fleet"
	"cebinae/internal/sim"
)

// A parameter sweep is the Cartesian product qdisc × scale × threshold
// run over one fixed scenario family (by default Fig. 12's 16 NewReno vs
// 1 Cubic contention). Thresholds parameterise Cebinae's δp = δf = τ and
// only that discipline consumes them, so non-Cebinae disciplines run one
// point per scale (recorded with ThresholdPct 0) instead of burning a
// whole threshold axis on identical simulations.

// SweepConfig declares the sweep grid and the scenario family it runs.
type SweepConfig struct {
	Qdiscs        []QdiscKind
	Scales        []Scale
	ThresholdPcts []float64 // δp=δf=τ in percent; applied to Cebinae only

	BottleneckBps float64
	BufferBytes   int
	Groups        []FlowGroup
	Seed          uint64
}

// DefaultSweepConfig is the Fig.12 scenario family under the full
// discipline set and the paper's threshold ladder.
func DefaultSweepConfig() SweepConfig {
	return SweepConfig{
		Qdiscs:        []QdiscKind{FIFO, FQ, Cebinae},
		Scales:        []Scale{Quick},
		ThresholdPcts: []float64{1, 2, 5, 10, 25, 50, 75, 100},
		BottleneckBps: 100e6,
		BufferBytes:   850 * 1500,
		Groups: []FlowGroup{
			{CC: "newreno", Count: 16, RTT: ms(50)},
			{CC: "cubic", Count: 1, RTT: ms(50)},
		},
		Seed: 7,
	}
}

// SweepPoint identifies one grid cell.
type SweepPoint struct {
	Qdisc        QdiscKind `json:"qdisc"`
	Scale        float64   `json:"scale"`
	ThresholdPct float64   `json:"threshold_pct"`
}

// ID returns the point's stable job ID (also its JSONL checkpoint key).
func (p SweepPoint) ID() string {
	return fmt.Sprintf("sweep/%s/s%g/t%g", p.Qdisc, p.Scale, p.ThresholdPct)
}

// SweepResult is one measured grid cell — the sweep's JSONL value schema.
type SweepResult struct {
	SweepPoint
	DurationS     float64 `json:"duration_s"`
	ThroughputBps float64 `json:"throughput_bps"`
	GoodputBps    float64 `json:"goodput_bps"`
	JFI           float64 `json:"jfi"`
}

// WriteSweepCSV emits a header row, then one row per sweep grid cell in the
// order given (DecodeOK with SweepResult.Less gives the canonical
// qdisc/scale/threshold sort), so the measured data can be re-plotted
// outside Go.
func WriteSweepCSV(w io.Writer, rows []SweepResult) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"qdisc", "scale", "threshold_pct", "duration_s", "throughput_mbps", "goodput_mbps", "jfi"}); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{
			string(r.Qdisc), f(r.Scale), f(r.ThresholdPct), f(r.DurationS),
			f(r.ThroughputBps / 1e6), f(r.GoodputBps / 1e6), f(r.JFI),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// f formats a CSV number: the shortest form that keeps 8 significant
// digits.
func f(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }

// Points enumerates the grid in deterministic order.
func (c SweepConfig) Points() []SweepPoint {
	var pts []SweepPoint
	for _, q := range c.Qdiscs {
		for _, s := range c.Scales {
			if q == Cebinae && len(c.ThresholdPcts) > 0 {
				for _, t := range c.ThresholdPcts {
					pts = append(pts, SweepPoint{Qdisc: q, Scale: float64(s), ThresholdPct: t})
				}
			} else {
				pts = append(pts, SweepPoint{Qdisc: q, Scale: float64(s), ThresholdPct: 0})
			}
		}
	}
	return pts
}

// Jobs wraps every grid point as a fleet job.
func (c SweepConfig) Jobs() []fleet.Job {
	pts := c.Points()
	cells := make([]Cell[SweepResult], len(pts))
	for i, pt := range pts {
		cells[i] = Cell[SweepResult]{
			Key:  pt.ID(),
			Desc: fmt.Sprintf("%s at scale %g, thresholds %g%%", pt.Qdisc, pt.Scale, pt.ThresholdPct),
			Run:  func() SweepResult { return RunSweepPoint(c, pt) },
		}
	}
	return cellJobs("", "", cells)
}

// RunSweepPoint measures one grid cell with its own engine.
func RunSweepPoint(c SweepConfig, pt SweepPoint) SweepResult {
	dur := sim.Time(pt.Scale * 100e9)
	if dur < sim.Duration(2e9) {
		dur = sim.Duration(2e9)
	}
	s := Scenario{
		Name:          pt.ID(),
		BottleneckBps: c.BottleneckBps,
		BufferBytes:   c.BufferBytes,
		Groups:        c.Groups,
		Duration:      dur,
		Qdisc:         pt.Qdisc,
		Seed:          c.Seed,
	}
	if pt.Qdisc == Cebinae && pt.ThresholdPct > 0 {
		p := core.DefaultParams(s.BottleneckBps, s.BufferBytes, maxRTT(s.Groups))
		p.DeltaPort = pt.ThresholdPct / 100
		p.DeltaFlow = pt.ThresholdPct / 100
		p.Tau = pt.ThresholdPct / 100
		s.Params = &p
	}
	r := Run(s)
	return SweepResult{
		SweepPoint:    pt,
		DurationS:     dur.Seconds(),
		ThroughputBps: r.ThroughputBps,
		GoodputBps:    r.GoodputBps,
		JFI:           r.JFI,
	}
}

// Less orders sweep rows by (qdisc, scale, threshold), the table's order.
func (a SweepResult) Less(b SweepResult) bool {
	if a.Qdisc != b.Qdisc {
		return a.Qdisc < b.Qdisc
	}
	if a.Scale != b.Scale {
		return a.Scale < b.Scale
	}
	return a.ThresholdPct < b.ThresholdPct
}

// RenderSweep prints the measured grid as an aligned text table.
func RenderSweep(rows []SweepResult) string {
	var b []byte
	b = fmt.Appendf(b, "%-9s | %6s | %9s | %6s | %14s | %12s | %6s\n",
		"qdisc", "scale", "thresh[%]", "dur[s]", "tput[Mbps]", "gput[Mbps]", "JFI")
	for _, r := range rows {
		b = fmt.Appendf(b, "%-9s | %6g | %9g | %6g | %14.2f | %12.2f | %6.3f\n",
			r.Qdisc, r.Scale, r.ThresholdPct, r.DurationS,
			r.ThroughputBps/1e6, r.GoodputBps/1e6, r.JFI)
	}
	return string(b)
}
