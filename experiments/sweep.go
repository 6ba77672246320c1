package experiments

import (
	"encoding/csv"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// A parameter sweep is the Cartesian product qdisc × scale × threshold
// run over one fixed scenario family (by default Fig. 12's 16 NewReno vs
// 1 Cubic contention). Thresholds parameterise Cebinae's δp = δf = τ and
// only that discipline consumes them, so non-Cebinae disciplines run one
// point per scale (recorded with threshold 0) instead of burning a whole
// threshold axis on identical simulations.

// SweepConfig declares the sweep grid and the scenario family it runs.
type SweepConfig struct {
	Qdiscs        []QdiscKind
	Scales        []Scale
	ThresholdPcts []float64 // δp=δf=τ in percent; applied to Cebinae only

	// Base is the family at full scale: a cell runs it under the cell's
	// discipline for its scale's share of Base.Duration (at least 2 s).
	Base Scenario
}

// DefaultSweepConfig is the Fig.12 scenario family under the full
// discipline set and the paper's threshold ladder.
func DefaultSweepConfig() SweepConfig {
	return SweepConfig{
		Qdiscs:        []QdiscKind{FIFO, FQ, Cebinae},
		Scales:        []Scale{Quick},
		ThresholdPcts: []float64{1, 2, 5, 10, 25, 50, 75, 100},
		Base:          fig12Family(Full),
	}
}

// sweepPoint is one grid cell's coordinates: what its row prints.
type sweepPoint struct {
	qdisc QdiscKind
	scale float64
	pct   float64
}

// points enumerates the grid in deterministic order: discipline, then
// scale, then threshold. Cebinae runs one point per threshold (none
// without one); every other discipline one point per scale.
func (c SweepConfig) points() []sweepPoint {
	var pts []sweepPoint
	for _, q := range c.Qdiscs {
		for _, s := range c.Scales {
			pcts := []float64{0}
			if q == Cebinae {
				pcts = c.ThresholdPcts
			}
			for _, t := range pcts {
				pts = append(pts, sweepPoint{qdisc: q, scale: float64(s), pct: t})
			}
		}
	}
	return pts
}

// Sections returns the grid as two renders of one set of cells, job IDs
// sweep/<qdisc>/s<scale>/t<threshold>: the text table and the CSV. A cell
// runs the family at its scale's horizon (at least 2 s), a Cebinae cell
// at its own threshold. Rows are sorted by (qdisc, scale, threshold) and
// print their point's threshold, not the run's τ×100, which float64
// moves (7/100×100 = 7.000000000000001).
func (c SweepConfig) Sections() (BenchSection, BenchSection) {
	pts := c.points()
	grid := make([]GridCell, len(pts))
	order := make([]int, len(pts))
	for i, pt := range pts {
		grid[i] = c.cell(pt)
		order[i] = i
	}
	// Rows print in sorted order; cells keep the enumeration order, which
	// fixes their job order in the store and in testdata/job_ids.txt.
	sort.SliceStable(order, func(i, k int) bool {
		a, b := pts[order[i]], pts[order[k]]
		if a.qdisc != b.qdisc {
			return a.qdisc < b.qdisc
		}
		if a.scale != b.scale {
			return a.scale < b.scale
		}
		return a.pct < b.pct
	})
	table := func(rs []Result) string {
		var b []byte
		b = fmt.Appendf(b, "%-9s | %6s | %9s | %6s | %14s | %12s | %6s\n",
			"qdisc", "scale", "thresh[%]", "dur[s]", "tput[Mbps]", "gput[Mbps]", "JFI")
		for _, i := range order {
			pt, r := pts[i], rs[i]
			b = fmt.Appendf(b, "%-9s | %6g | %9g | %6g | %14.2f | %12.2f | %6.3f\n",
				pt.qdisc, pt.scale, pt.pct, r.Scenario.Duration.Seconds(),
				r.ThroughputBps/1e6, r.GoodputBps/1e6, r.JFI)
		}
		return string(b)
	}
	sheet := func(rs []Result) string {
		recs := [][]string{{"qdisc", "scale", "threshold_pct", "duration_s", "throughput_mbps", "goodput_mbps", "jfi"}}
		for _, i := range order {
			pt, r := pts[i], rs[i]
			recs = append(recs, []string{
				string(pt.qdisc), f(pt.scale), f(pt.pct), f(r.Scenario.Duration.Seconds()),
				f(r.ThroughputBps / 1e6), f(r.GoodputBps / 1e6), f(r.JFI),
			})
		}
		return csvText(recs)
	}
	return GridSection("", "sweep", "", grid, table), GridSection("", "sweep", "", grid, sheet)
}

// cell lowers one point to its dumbbell.
func (c SweepConfig) cell(pt sweepPoint) GridCell {
	key := fmt.Sprintf("%s/s%g/t%g", pt.qdisc, pt.scale, pt.pct)
	s := c.Base
	s.Name, s.Qdisc = "sweep/"+key, pt.qdisc
	s.Duration = horizon(Scale(pt.scale), float64(c.Base.Duration), Seconds(2))
	if pt.qdisc == Cebinae {
		s = withThreshold(s, pt.pct)
	}
	return GridCell{ID: key, Label: fmt.Sprintf("%s at scale %g, thresholds %g%%", pt.qdisc, pt.scale, pt.pct), Scenario: s}
}

// csvText renders records as CSV. A strings.Builder never fails a write.
func csvText(recs [][]string) string {
	var b strings.Builder
	cw := csv.NewWriter(&b)
	cw.WriteAll(recs)
	return b.String()
}

// f formats a CSV number: the shortest form that keeps 8 significant
// digits.
func f(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }
