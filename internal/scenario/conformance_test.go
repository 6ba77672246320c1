package scenario

import (
	"encoding/json"
	"strings"
	"testing"

	"cebinae/experiments"
	"cebinae/internal/fleet"
)

// runGrid runs a grid scenario's section on a one-worker fleet and
// returns its report and its cells' results by cell ID.
func runGrid(t *testing.T, c *Compiled) (string, map[string]experiments.Result) {
	t.Helper()
	sec := c.Section("")
	sum, err := fleet.Run(sec.Jobs, fleet.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	get := experiments.SummaryGetter(sum)
	report, err := sec.Render(get)
	if err != nil {
		t.Fatal(err)
	}
	cells := map[string]experiments.Result{}
	for i, job := range sec.Jobs {
		raw, err := get(job.ID)
		if err != nil {
			t.Fatal(err)
		}
		var r experiments.Result
		if err := json.Unmarshal(raw, &r); err != nil {
			t.Fatal(err)
		}
		cells[c.Grid[i].ID] = r
	}
	return report, cells
}

// TestTournamentConformance pins the CCA tournament matrix compiled from
// its shipped spec: the full grid is deterministic — two complete runs
// produce byte-identical reports, so every cell's per-pair JFI is
// reproducible — and the matrix enumerates exactly the declared
// cross-product.
func TestTournamentConformance(t *testing.T) {
	spec := mustLoad(t, "tournament.json")
	c, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	// 2 qdiscs × 6 unordered pairs from 3 CCAs × 2 ratios × 2 buffers.
	if len(c.Grid) != 48 {
		t.Fatalf("tournament enumerates %d cells, want 48", len(c.Grid))
	}
	first, cells := runGrid(t, c)
	second, _ := runGrid(t, c)
	if first != second {
		t.Errorf("tournament is not deterministic across two runs\n--- first\n%s--- second\n%s", first, second)
	}
	for id, cell := range cells {
		if cell.JFI <= 0 || cell.JFI > 1 {
			t.Errorf("cell %s: JFI %v out of range", id, cell.JFI)
		}
		if n := len(cell.GroupGoodputBps()); n != 2 {
			t.Errorf("cell %s: want 2 per-CCA goodput groups, got %d", id, n)
		}
	}
}

// TestBufferSweepConformance pins the BBRv1-vs-Cubic buffer-depth sweep
// compiled from its shipped spec against the BBR-fairness study's
// qualitative signature under FIFO: in shallow buffers BBR's probing
// floor starves Cubic, in deep buffers Cubic's queue occupancy starves
// BBR, and fairness improves with depth. Cebinae is asserted ≥ FIFO JFI
// at the shallow and mid-deep depths — the regimes where FIFO's
// unfairness comes from queue-occupancy asymmetry, which Cebinae's
// leaf tax targets.
func TestBufferSweepConformance(t *testing.T) {
	spec := mustLoad(t, "bbr-buffer-sweep.json")
	c, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Grid) != 8 {
		t.Fatalf("sweep enumerates %d cells, want 8", len(c.Grid))
	}
	report, r := runGrid(t, c)

	// Determinism spot-check on the two assertion-bearing FIFO cells.
	for _, id := range []string{"fifo/b31250", "fifo/b2000000"} {
		var cell experiments.GridCell
		for _, gc := range c.Grid {
			if gc.ID == id {
				cell = gc
			}
		}
		a, b := experiments.Run(cell.Scenario), experiments.Run(cell.Scenario)
		if a.JFI != b.JFI || a.GoodputBps != b.GoodputBps {
			t.Errorf("cell %s: not deterministic across two runs (JFI %v vs %v)", id, a.JFI, b.JFI)
		}
	}

	// Groups are declared [bbr, cubic].
	bbr := func(cell experiments.Result) float64 { return cell.GroupGoodputBps()[0] }
	cubic := func(cell experiments.Result) float64 { return cell.GroupGoodputBps()[1] }

	shallow := r["fifo/b31250"]
	deepest := r["fifo/b2000000"]
	if bbr(shallow) < 2*cubic(shallow) {
		t.Errorf("shallow FIFO should starve Cubic under BBR: bbr=%.0f cubic=%.0f", bbr(shallow), cubic(shallow))
	}
	if cubic(deepest) < 2*bbr(deepest) {
		t.Errorf("deep FIFO should starve BBR under Cubic: bbr=%.0f cubic=%.0f", bbr(deepest), cubic(deepest))
	}
	if deepest.JFI <= shallow.JFI {
		t.Errorf("FIFO fairness should improve with depth: JFI(deep)=%.4f <= JFI(shallow)=%.4f", deepest.JFI, shallow.JFI)
	}
	for _, depth := range []string{"b31250", "b500000"} {
		fifo := r["fifo/"+depth]
		ceb := r["cebinae/"+depth]
		if ceb.JFI < fifo.JFI {
			t.Errorf("%s: Cebinae JFI %.4f < FIFO JFI %.4f", depth, ceb.JFI, fifo.JFI)
		}
	}

	// The report names cells by ID; sanity-pin the rendering so sweep
	// output stays greppable.
	if !strings.Contains(report, "fifo/b31250") {
		t.Errorf("sweep report missing cell IDs:\n%s", report)
	}
}
