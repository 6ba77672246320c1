package experiments

import (
	"fmt"
	"strings"
)

// The grid scenario family enumerates dumbbell cells over a parameter
// cross-product and reports one fairness row per cell. The scenario
// format declares two (internal/scenario builds their cells from the
// spec): the CCA tournament (every CCA pair × RTT ratio × buffer depth,
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
