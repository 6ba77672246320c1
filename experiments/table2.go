package experiments

import (
	"fmt"
	"strings"

	"cebinae/internal/sim"
)

// Table2Config is one row of the paper's Table 2: a bandwidth / RTT /
// buffer / CCA-mix combination evaluated under FIFO, FQ, and Cebinae.
type Table2Config struct {
	Label      string
	BtlBps     float64
	RTTs       []sim.Time // one per group, or a single shared value
	BufferMTUs int
	Groups     []FlowGroup // RTT fields filled from RTTs
}

// ms is a readability helper for scenario tables.
func ms(v float64) sim.Time { return sim.Time(v * 1e6) }

// Table2Rows returns all 25 configurations of Table 2, in paper order.
func Table2Rows() []Table2Config {
	g := func(cc string, n int) FlowGroup { return FlowGroup{CC: cc, Count: n} }
	rows := []Table2Config{
		{BtlBps: 100e6, RTTs: []sim.Time{ms(20.8), ms(28)}, BufferMTUs: 250, Groups: []FlowGroup{g("newreno", 2), g("newreno", 8)}},
		{BtlBps: 100e6, RTTs: []sim.Time{ms(20.4), ms(40)}, BufferMTUs: 350, Groups: []FlowGroup{g("cubic", 8), g("cubic", 2)}},
		{BtlBps: 100e6, RTTs: []sim.Time{ms(20.4), ms(60)}, BufferMTUs: 500, Groups: []FlowGroup{g("vegas", 2), g("vegas", 8)}},
		{BtlBps: 100e6, RTTs: []sim.Time{ms(200)}, BufferMTUs: 1700, Groups: []FlowGroup{g("newreno", 16), g("cubic", 1)}},
		{BtlBps: 100e6, RTTs: []sim.Time{ms(100)}, BufferMTUs: 850, Groups: []FlowGroup{g("newreno", 16), g("cubic", 1)}},
		{BtlBps: 100e6, RTTs: []sim.Time{ms(50)}, BufferMTUs: 420, Groups: []FlowGroup{g("newreno", 16), g("cubic", 1)}},
		{BtlBps: 100e6, RTTs: []sim.Time{ms(50)}, BufferMTUs: 420, Groups: []FlowGroup{g("vegas", 16), g("cubic", 1)}},
		{BtlBps: 100e6, RTTs: []sim.Time{ms(100)}, BufferMTUs: 850, Groups: []FlowGroup{g("vegas", 16), g("newreno", 1)}},
		{BtlBps: 100e6, RTTs: []sim.Time{ms(100)}, BufferMTUs: 850, Groups: []FlowGroup{g("vegas", 128), g("newreno", 1)}},
		{BtlBps: 100e6, RTTs: []sim.Time{ms(60)}, BufferMTUs: 500, Groups: []FlowGroup{g("vegas", 8), g("newreno", 8), g("cubic", 2)}},
		{BtlBps: 1e9, RTTs: []sim.Time{ms(5)}, BufferMTUs: 420, Groups: []FlowGroup{g("newreno", 32), g("cubic", 8)}},
		{BtlBps: 1e9, RTTs: []sim.Time{ms(10)}, BufferMTUs: 850, Groups: []FlowGroup{g("vegas", 128), g("cubic", 1)}},
		{BtlBps: 1e9, RTTs: []sim.Time{ms(10)}, BufferMTUs: 850, Groups: []FlowGroup{g("vegas", 1024), g("cubic", 2)}},
		{BtlBps: 1e9, RTTs: []sim.Time{ms(50)}, BufferMTUs: 4200, Groups: []FlowGroup{g("newreno", 128), g("bbr", 1)}},
		{BtlBps: 1e9, RTTs: []sim.Time{ms(50)}, BufferMTUs: 4200, Groups: []FlowGroup{g("newreno", 128), g("bbr", 2)}},
		{BtlBps: 1e9, RTTs: []sim.Time{ms(50)}, BufferMTUs: 21000, Groups: []FlowGroup{g("newreno", 128), g("bbr", 2)}},
		{BtlBps: 1e9, RTTs: []sim.Time{ms(100)}, BufferMTUs: 8350, Groups: []FlowGroup{g("newreno", 128), g("bbr", 2)}},
		{BtlBps: 1e9, RTTs: []sim.Time{ms(10)}, BufferMTUs: 850, Groups: []FlowGroup{g("vegas", 64), g("newreno", 1)}},
		{BtlBps: 1e9, RTTs: []sim.Time{ms(100)}, BufferMTUs: 8500, Groups: []FlowGroup{g("vegas", 4), g("newreno", 128)}},
		{BtlBps: 1e9, RTTs: []sim.Time{ms(100), ms(64)}, BufferMTUs: 8500, Groups: []FlowGroup{g("vegas", 4), g("newreno", 128)}},
		{BtlBps: 1e9, RTTs: []sim.Time{ms(100)}, BufferMTUs: 8500, Groups: []FlowGroup{g("vegas", 8), g("newreno", 128)}},
		{BtlBps: 1e9, RTTs: []sim.Time{ms(10)}, BufferMTUs: 850, Groups: []FlowGroup{g("vegas", 128), g("bbr", 1)}},
		{BtlBps: 1e9, RTTs: []sim.Time{ms(100)}, BufferMTUs: 8500, Groups: []FlowGroup{g("bic", 2), g("cubic", 32)}},
		{BtlBps: 10e9, RTTs: []sim.Time{ms(50), ms(44)}, BufferMTUs: 41667, Groups: []FlowGroup{g("newreno", 128), g("cubic", 16)}},
		{BtlBps: 10e9, RTTs: []sim.Time{ms(28), ms(28)}, BufferMTUs: 25000, Groups: []FlowGroup{g("newreno", 128), g("cubic", 128)}},
	}
	for i := range rows {
		r := &rows[i]
		for gi := range r.Groups {
			rtt := r.RTTs[0]
			if len(r.RTTs) > gi {
				rtt = r.RTTs[gi]
			}
			r.Groups[gi].RTT = rtt
		}
		r.Label = table2Label(*r)
	}
	return rows
}

func table2Label(r Table2Config) string {
	var ccs, rtts []string
	for _, g := range r.Groups {
		ccs = append(ccs, fmt.Sprintf("%s:%d", g.CC, g.Count))
	}
	seen := map[sim.Time]bool{}
	for _, rt := range r.RTTs {
		if !seen[rt] {
			seen[rt] = true
			rtts = append(rtts, fmt.Sprintf("%g", float64(rt)/1e6))
		}
	}
	return fmt.Sprintf("%s/{%s}ms/%dMTU/{%s}", bwLabel(r.BtlBps), strings.Join(rtts, ","), r.BufferMTUs, strings.Join(ccs, ","))
}

func bwLabel(bps float64) string {
	switch {
	case bps >= 1e9:
		return fmt.Sprintf("%gGbps", bps/1e9)
	default:
		return fmt.Sprintf("%gMbps", bps/1e6)
	}
}

// Table2Cell is one (row, qdisc) measurement.
type Table2Cell struct {
	ThroughputBps float64
	GoodputBps    float64
	JFI           float64
}

// Table2Row is a fully-measured row.
type Table2Row struct {
	Config Table2Config
	Cells  map[QdiscKind]Table2Cell
}

// table2Duration picks a per-row horizon: the paper's 100 s at full scale.
// Below it, high-bandwidth rows are shortened further (÷2 above 500 Mbps,
// ÷8 above 5 Gbps) so the event count stays bounded at small scales.
func table2Duration(bps float64, scale Scale) sim.Time {
	base := sim.Time(float64(scale) * 100e9)
	switch {
	case scale >= Full:
	case bps > 5e9:
		base /= 8
	case bps > 5e8:
		base /= 2
	}
	if base < sim.Duration(2e9) {
		base = sim.Duration(2e9)
	}
	return base
}

// Table2Scenario materialises one (config, qdisc) scenario.
func Table2Scenario(cfg Table2Config, kind QdiscKind, scale Scale) Scenario {
	return Scenario{
		Name:          fmt.Sprintf("table2/%s/%s", cfg.Label, kind),
		BottleneckBps: cfg.BtlBps,
		BufferBytes:   cfg.BufferMTUs * 1500,
		Groups:        cfg.Groups,
		Duration:      table2Duration(cfg.BtlBps, scale),
		Qdisc:         kind,
		Seed:          42,
	}
}

// RunTable2Row measures one config under all three disciplines.
func RunTable2Row(cfg Table2Config, scale Scale) Table2Row {
	row := Table2Row{Config: cfg, Cells: make(map[QdiscKind]Table2Cell)}
	for _, kind := range []QdiscKind{FIFO, FQ, Cebinae} {
		r := Run(Table2Scenario(cfg, kind, scale))
		row.Cells[kind] = Table2Cell{ThroughputBps: r.ThroughputBps, GoodputBps: r.GoodputBps, JFI: r.JFI}
	}
	return row
}

// RenderTable2 prints the measured table in the paper's layout.
func RenderTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-52s | %27s | %27s | %23s\n", "Configuration", "Throughput [Mbps]", "Goodput [Mbps]", "JFI")
	fmt.Fprintf(&b, "%-52s | %8s %8s %9s | %8s %8s %9s | %7s %7s %7s\n",
		"", "FIFO", "FQ", "Cebinae", "FIFO", "FQ", "Cebinae", "FIFO", "FQ", "Cebinae")
	for _, r := range rows {
		f, q, c := r.Cells[FIFO], r.Cells[FQ], r.Cells[Cebinae]
		fmt.Fprintf(&b, "%-52s | %8.1f %8.1f %9.1f | %8.1f %8.1f %9.1f | %7.3f %7.3f %7.3f\n",
			r.Config.Label,
			f.ThroughputBps/1e6, q.ThroughputBps/1e6, c.ThroughputBps/1e6,
			f.GoodputBps/1e6, q.GoodputBps/1e6, c.GoodputBps/1e6,
			f.JFI, q.JFI, c.JFI)
	}
	return b.String()
}
