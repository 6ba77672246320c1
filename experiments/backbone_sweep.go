package experiments

import (
	"fmt"
	"sort"
	"strconv"
)

// The backbone sweep runs the replay scale tiers as a Cartesian grid —
// standing-flow population × core discipline — through the fleet
// orchestrator, the same checkpointed-JSONL shape as the dumbbell sweep.
// It answers the capacity-planning question the single tiers cannot: how
// Cebinae's loss/marking behaviour and the cache's recall move as the flow
// population grows past what the instrumentation was sized for.

// BackboneSweepSections returns the (flows, qdisc) grid at scale as two
// renders of one set of cells, job IDs backbone/<qdisc>/f<flows>/s<scale>:
// the text table and the CSV. Each cell stores its BackboneResult; rows
// are sorted by the record's (qdisc, flows).
func BackboneSweepSections(flows []int, qdiscs []QdiscKind, scale Scale) (BenchSection, BenchSection) {
	var cells []Cell[BackboneResult]
	for _, n := range flows {
		for _, q := range qdiscs {
			cells = append(cells, Cell[BackboneResult]{
				Key:  fmt.Sprintf("%s/f%d/s%g", q, n, float64(scale)),
				Desc: fmt.Sprintf("backbone %s with %d standing flows at scale %g", q, n, float64(scale)),
				Run: func() BackboneResult {
					cfg := BackboneTier(n, scale)
					cfg.Qdisc = q
					return RunBackbone(cfg)
				},
			})
		}
	}
	table := func(rs []BackboneResult) string {
		var b []byte
		b = fmt.Appendf(b, "%-9s | %8s | %8s | %7s | %8s | %9s | %7s | %9s | %12s\n",
			"qdisc", "flows", "peak", "util[%]", "drops", "ratecuts", "recall", "over[%]", "fair[Mbps]")
		for _, r := range sortBackbone(rs) {
			b = fmt.Appendf(b, "%-9s | %8d | %8d | %7.1f | %8d | %9d | %7.3f | %9.2f | %12.3f\n",
				r.Config.Qdisc, r.Config.Flows, r.PeakActive, r.UtilizationPct, r.CoreDropPkts,
				r.RateCuts, r.CacheRecallTopK, r.SketchOverestimatePct, r.MaxMinFairShareBps/1e6)
		}
		return string(b)
	}
	sheet := func(rs []BackboneResult) string {
		recs := [][]string{{"qdisc", "flows", "scale", "duration_s", "peak_active", "flows_seen",
			"utilization_pct", "core_drop_pkts", "rate_cuts", "cache_recall_topk", "sketch_over_pct",
			"fair_share_bps", "events"}}
		for _, r := range sortBackbone(rs) {
			recs = append(recs, []string{
				string(r.Config.Qdisc), strconv.Itoa(r.Config.Flows), f(float64(scale)), f(r.Config.Duration.Seconds()),
				strconv.Itoa(r.PeakActive), strconv.Itoa(r.FlowsSeen), f(r.UtilizationPct),
				strconv.FormatUint(r.CoreDropPkts, 10), strconv.FormatUint(r.RateCuts, 10),
				f(r.CacheRecallTopK), f(r.SketchOverestimatePct), f(r.MaxMinFairShareBps), strconv.FormatUint(r.Events, 10),
			})
		}
		return csvText(recs)
	}
	return NewSection("", "backbone", "", cells, table), NewSection("", "backbone", "", cells, sheet)
}

// sortBackbone sorts the grid's records by (qdisc, flows), the table's
// order, in place.
func sortBackbone(rs []BackboneResult) []BackboneResult {
	sort.SliceStable(rs, func(i, k int) bool {
		a, b := rs[i].Config, rs[k].Config
		if a.Qdisc != b.Qdisc {
			return a.Qdisc < b.Qdisc
		}
		return a.Flows < b.Flows
	})
	return rs
}
