package experiments

import (
	"encoding/csv"
	"io"
	"strconv"
)

// CSV exporters so the measured data can be re-plotted outside Go. Each
// writer emits a header row followed by one record per measurement.

// WriteSweepCSV emits one row per sweep grid cell, in the order given
// (use DecodeSweepResults for the canonical qdisc/scale/threshold sort).
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

func f(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }
