package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"cebinae/internal/fleet"
)

// The backbone sweep runs the replay scale tiers as a Cartesian grid —
// standing-flow population × core discipline — through the fleet
// orchestrator, the same checkpointed-JSONL shape as the dumbbell sweep.
// It answers the capacity-planning question the single tiers cannot: how
// Cebinae's loss/marking behaviour and the cache's recall move as the flow
// population grows past what the instrumentation was sized for.

// BackboneSweepPoint identifies one grid cell.
type BackboneSweepPoint struct {
	Flows int       `json:"flows"`
	Qdisc QdiscKind `json:"qdisc"`
	Scale float64   `json:"scale"`
}

// ID returns the point's stable job ID (also its JSONL checkpoint key).
func (p BackboneSweepPoint) ID() string {
	return fmt.Sprintf("backbone/%s/f%d/s%g", p.Qdisc, p.Flows, p.Scale)
}

// BackboneSweepResult is one measured grid cell — the backbone sweep's
// JSONL value schema.
type BackboneSweepResult struct {
	BackboneSweepPoint
	DurationS      float64 `json:"duration_s"`
	PeakActive     int     `json:"peak_active"`
	FlowsSeen      int     `json:"flows_seen"`
	UtilizationPct float64 `json:"utilization_pct"`
	CoreDropPkts   uint64  `json:"core_drop_pkts"`
	RateCuts       uint64  `json:"rate_cuts"`
	CacheRecall    float64 `json:"cache_recall_topk"`
	SketchOverPct  float64 `json:"sketch_over_pct"`
	FairShareBps   float64 `json:"fair_share_bps"`
	Events         uint64  `json:"events"`
}

// BackboneSweepJobs wraps every (flows, qdisc) cell as a fleet job at the
// given scale.
func BackboneSweepJobs(flows []int, qdiscs []QdiscKind, scale Scale) []fleet.Job {
	var cells []Cell[BackboneSweepResult]
	for _, n := range flows {
		for _, q := range qdiscs {
			pt := BackboneSweepPoint{Flows: n, Qdisc: q, Scale: float64(scale)}
			cells = append(cells, Cell[BackboneSweepResult]{
				Key:  pt.ID(),
				Desc: fmt.Sprintf("backbone %s with %d standing flows at scale %g", pt.Qdisc, pt.Flows, pt.Scale),
				Run:  func() BackboneSweepResult { return RunBackboneSweepPoint(pt) },
			})
		}
	}
	return cellJobs("", "", cells)
}

// RunBackboneSweepPoint measures one grid cell with its own cluster.
func RunBackboneSweepPoint(pt BackboneSweepPoint) BackboneSweepResult {
	cfg := BackboneTier(pt.Flows, Scale(pt.Scale))
	cfg.Qdisc = pt.Qdisc
	r := RunBackbone(cfg)
	return BackboneSweepResult{
		BackboneSweepPoint: pt,
		DurationS:          cfg.Duration.Seconds(),
		PeakActive:         r.PeakActive,
		FlowsSeen:          r.FlowsSeen,
		UtilizationPct:     r.UtilizationPct,
		CoreDropPkts:       r.CoreDropPkts,
		RateCuts:           r.RateCuts,
		CacheRecall:        r.CacheRecallTopK,
		SketchOverPct:      r.SketchOverestimatePct,
		FairShareBps:       r.MaxMinFairShareBps,
		Events:             r.Events,
	}
}

// Less orders backbone rows by (qdisc, flows), the table's order.
func (a BackboneSweepResult) Less(b BackboneSweepResult) bool {
	if a.Qdisc != b.Qdisc {
		return a.Qdisc < b.Qdisc
	}
	return a.Flows < b.Flows
}

// RenderBackboneSweep prints the measured grid as an aligned text table.
func RenderBackboneSweep(rows []BackboneSweepResult) string {
	var b []byte
	b = fmt.Appendf(b, "%-9s | %8s | %8s | %7s | %8s | %9s | %7s | %9s | %12s\n",
		"qdisc", "flows", "peak", "util[%]", "drops", "ratecuts", "recall", "over[%]", "fair[Mbps]")
	for _, r := range rows {
		b = fmt.Appendf(b, "%-9s | %8d | %8d | %7.1f | %8d | %9d | %7.3f | %9.2f | %12.3f\n",
			r.Qdisc, r.Flows, r.PeakActive, r.UtilizationPct, r.CoreDropPkts,
			r.RateCuts, r.CacheRecall, r.SketchOverPct, r.FairShareBps/1e6)
	}
	return string(b)
}

// WriteBackboneSweepCSV emits one row per backbone grid cell, in the order
// given (DecodeOK with BackboneSweepResult.Less gives the canonical
// qdisc/flows sort).
func WriteBackboneSweepCSV(w io.Writer, rows []BackboneSweepResult) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"qdisc", "flows", "scale", "duration_s", "peak_active", "flows_seen",
		"utilization_pct", "core_drop_pkts", "rate_cuts", "cache_recall_topk", "sketch_over_pct",
		"fair_share_bps", "events"}); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{
			string(r.Qdisc), strconv.Itoa(r.Flows), f(r.Scale), f(r.DurationS),
			strconv.Itoa(r.PeakActive), strconv.Itoa(r.FlowsSeen), f(r.UtilizationPct),
			strconv.FormatUint(r.CoreDropPkts, 10), strconv.FormatUint(r.RateCuts, 10),
			f(r.CacheRecall), f(r.SketchOverPct), f(r.FairShareBps), strconv.FormatUint(r.Events, 10),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
