package experiments

import (
	"fmt"
	"strings"
)

// The grid scenario family enumerates dumbbell cells over a parameter
// cross-product and reports one fairness row per cell. Two generators
// exist: the CCA tournament (every CCA pair × RTT ratio × buffer depth,
// after CoCo-Beholder's testbed matrices) and the buffer-depth fairness
// sweep (a fixed CC mix — canonically BBRv1 vs Cubic — across buffer
// sizes, after the BBR-fairness study's grid). Cells are independent
// simulations, so a grid is a GridSection: one Cell per GridCell (keyed by
// its ID) whose value is its Result, rendered by RenderGrid.

// GridCell is one independent dumbbell simulation within a grid.
type GridCell struct {
	ID       string
	Label    string
	Scenario Scenario
}

// GridSection is a grid as the report section id: one cell per GridCell,
// keyed by its ID and described by its Label, whose value is the Result
// of its Scenario; render receives the results in cell order.
func GridSection(prefix, id, desc string, grid []GridCell, render func([]Result) string) BenchSection {
	cells := make([]Cell[Result], len(grid))
	for i, g := range grid {
		cells[i] = Cell[Result]{Key: g.ID, Desc: g.Label, Run: func() Result { return Run(g.Scenario) }}
	}
	return NewSection(prefix, id, desc, cells, render)
}

// GroupGoodputBps sums the flows' goodput per flow group, in declaration
// order: the per-CCA split a tournament cell reports.
func (r Result) GroupGoodputBps() []float64 {
	out := make([]float64, len(r.Scenario.Groups))
	idx := 0
	for i, g := range r.Scenario.Groups {
		for range g.Count {
			out[i] += r.Flows[idx].GoodputBps
			idx++
		}
	}
	return out
}

// RenderGrid prints grid name in canonical byte-stable form: one row per
// cell, cells in generation order, rs[i] the result of grid[i].
func RenderGrid(name string, grid []GridCell, rs []Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "grid %s: %d cells\n", name, len(rs))
	for i, r := range rs {
		fmt.Fprintf(&b, "%-44s JFI=%.9f goodput=%14.6f", grid[i].ID, r.JFI, r.GoodputBps)
		for _, g := range r.GroupGoodputBps() {
			fmt.Fprintf(&b, " %14.6f", g)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TournamentConfig generates the CCA tournament matrix: every unordered
// CCA pair (including self-pairs, the intra-CCA RTT-fairness baseline)
// shares a dumbbell at every RTT ratio × buffer depth × discipline.
type TournamentConfig struct {
	Name        string
	CCAs        []string
	FlowsPerCCA int
	// BottleneckBps / BaseRTT anchor the dumbbell; the second group's RTT
	// is BaseRTT × ratio.
	BottleneckBps float64
	BaseRTT       SimTime
	RTTRatios     []float64
	BufferBytes   []int
	Qdiscs        []QdiscKind
	Duration      SimTime
	// MinRTO clamps the senders' retransmission timers (0 = the runner's
	// 1 s RFC 6298 default; 200 ms approximates Linux).
	MinRTO SimTime
	Seed   uint64
}

// Cells enumerates the matrix in deterministic order: discipline, then
// pair (i ≤ j in CCAs order), then RTT ratio, then buffer depth.
func (c TournamentConfig) Cells() []GridCell {
	var cells []GridCell
	for _, q := range c.Qdiscs {
		for i := 0; i < len(c.CCAs); i++ {
			for j := i; j < len(c.CCAs); j++ {
				for _, ratio := range c.RTTRatios {
					for _, buf := range c.BufferBytes {
						//lint:ignore simtime RTT ratios scale bounded base RTTs (« 2^53 ns); sub-ns rounding of a config input is immaterial
						rtt2 := SimTime(float64(c.BaseRTT) * ratio)
						id := fmt.Sprintf("%s/%s-%s/r%g/b%d", q, c.CCAs[i], c.CCAs[j], ratio, buf)
						cells = append(cells, GridCell{
							ID:    id,
							Label: fmt.Sprintf("%s vs %s, RTT ×%g, %d B buffer, %s", c.CCAs[i], c.CCAs[j], ratio, buf, q),
							Scenario: Scenario{
								Name:          c.Name + "/" + id,
								BottleneckBps: c.BottleneckBps,
								BufferBytes:   buf,
								Groups: []FlowGroup{
									{CC: c.CCAs[i], Count: c.FlowsPerCCA, RTT: c.BaseRTT},
									{CC: c.CCAs[j], Count: c.FlowsPerCCA, RTT: rtt2},
								},
								Duration: c.Duration,
								Qdisc:    q,
								MinRTO:   c.MinRTO,
								Seed:     c.Seed,
							},
						})
					}
				}
			}
		}
	}
	return cells
}

// BufferSweepConfig generates the buffer-depth fairness sweep: one fixed
// flow mix (canonically BBRv1 vs Cubic) re-run at every buffer depth ×
// discipline, reporting JFI per cell.
type BufferSweepConfig struct {
	Name          string
	Groups        []FlowGroup
	BottleneckBps float64
	BufferBytes   []int
	Qdiscs        []QdiscKind
	Duration      SimTime
	// MinRTO clamps the senders' retransmission timers (0 = the runner's
	// 1 s RFC 6298 default; 200 ms approximates Linux). The BBR-fairness
	// grid needs the Linux-like clamp — with 1 s stalls the buffer-depth
	// signature washes out.
	MinRTO SimTime
	Seed   uint64
}

// Cells enumerates the sweep in deterministic order: discipline, then
// buffer depth.
func (c BufferSweepConfig) Cells() []GridCell {
	var cells []GridCell
	for _, q := range c.Qdiscs {
		for _, buf := range c.BufferBytes {
			id := fmt.Sprintf("%s/b%d", q, buf)
			cells = append(cells, GridCell{
				ID:    id,
				Label: fmt.Sprintf("%d B buffer, %s", buf, q),
				Scenario: Scenario{
					Name:          c.Name + "/" + id,
					BottleneckBps: c.BottleneckBps,
					BufferBytes:   buf,
					Groups:        c.Groups,
					Duration:      c.Duration,
					Qdisc:         q,
					MinRTO:        c.MinRTO,
					Seed:          c.Seed,
				},
			})
		}
	}
	return cells
}
