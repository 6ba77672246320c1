package experiments

import (
	"encoding/json"
	"strings"
	"testing"

	"cebinae/internal/fleet"
)

// benchSection returns BenchSections(scale)'s section id.
func benchSection(t *testing.T, scale Scale, id string) BenchSection {
	t.Helper()
	for _, s := range BenchSections(scale) {
		if s.ID == id {
			return s
		}
	}
	t.Fatalf("no report section %q", id)
	return BenchSection{}
}

// renderSection runs a section's jobs through the fleet under opts and
// renders it from the summary, as the CLIs do.
func renderSection(t *testing.T, sec BenchSection, opts fleet.Options) string {
	t.Helper()
	sum, err := fleet.Run(sec.Jobs, opts)
	if err != nil {
		t.Fatal(err)
	}
	text, err := sec.Render(SummaryGetter(sum))
	if err != nil {
		t.Fatal(err)
	}
	return text
}

// sectionValues runs a section's jobs through the fleet and decodes their
// values in job order.
func sectionValues[T any](t *testing.T, sec BenchSection) []T {
	t.Helper()
	sum, err := fleet.Run(sec.Jobs, fleet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	get := SummaryGetter(sum)
	out := make([]T, len(sec.Jobs))
	for i, j := range sec.Jobs {
		raw, err := get(j.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &out[i]); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func TestTable2RowsShape(t *testing.T) {
	rows := Table2Rows()
	if len(rows) != 25 {
		t.Fatalf("Table 2 has 25 configurations, got %d", len(rows))
	}
	for i, r := range rows {
		if r.BtlBps <= 0 || r.BufferMTUs <= 0 || len(r.Groups) == 0 {
			t.Fatalf("row %d malformed: %+v", i, r)
		}
		for gi, g := range r.Groups {
			if g.RTT == 0 {
				t.Fatalf("row %d group %d missing RTT", i, gi)
			}
			if _, ok := map[string]bool{"newreno": true, "cubic": true, "bic": true, "vegas": true, "bbr": true}[g.CC]; !ok {
				t.Fatalf("row %d group %d unknown CCA %q", i, gi, g.CC)
			}
		}
		if r.Label == "" {
			t.Fatalf("row %d missing label", i)
		}
	}
	// Spot-check paper rows: row 13 is {Vegas:1024, Cubic:2} at 1 Gbps.
	r13 := rows[12]
	if r13.BtlBps != 1e9 || r13.Groups[0].Count != 1024 || r13.Groups[0].CC != "vegas" {
		t.Fatalf("row 13 wrong: %+v", r13)
	}
	// Row 25 is the 10 Gbps 128v128 row.
	r25 := rows[24]
	if r25.BtlBps != 10e9 || r25.Groups[1].Count != 128 {
		t.Fatalf("row 25 wrong: %+v", r25)
	}
}

func TestRunScenarioBasics(t *testing.T) {
	r := Run(Scenario{
		Name:          "test",
		BottleneckBps: 20e6,
		BufferBytes:   128 * 1500,
		Groups:        []FlowGroup{{CC: "newreno", Count: 2, RTT: Millis(20)}},
		Duration:      Seconds(5),
		Qdisc:         FIFO,
	})
	if len(r.Flows) != 2 {
		t.Fatalf("expected 2 flows, got %d", len(r.Flows))
	}
	if r.JFI < 0 || r.JFI > 1 {
		t.Fatalf("JFI out of range: %v", r.JFI)
	}
	if r.ThroughputBps > 20e6*1.01 {
		t.Fatalf("throughput above capacity: %v", r.ThroughputBps)
	}
	if r.GoodputBps < 0.7*20e6 {
		t.Fatalf("two NewReno flows should fill most of the link: %v", r.GoodputBps/1e6)
	}
	if r.Events == 0 {
		t.Fatal("event counter missing")
	}
}

func TestRunScenarioSampling(t *testing.T) {
	r := Run(Scenario{
		Name:          "sampled",
		BottleneckBps: 20e6,
		BufferBytes:   128 * 1500,
		Groups: []FlowGroup{
			{CC: "newreno", Count: 1, RTT: Millis(20)},
			{CC: "newreno", Count: 1, RTT: Millis(20), StartAt: Seconds(2)},
		},
		Duration:       Seconds(5),
		Qdisc:          FIFO,
		SampleInterval: Seconds(1),
	})
	if len(r.JFISeries) != 5 {
		t.Fatalf("expected 5 JFI samples, got %d", len(r.JFISeries))
	}
	// Before the second flow arrives the JFI covers one flow (≡1).
	if r.JFISeries[0] < 0.99 {
		t.Fatalf("single-flow JFI should be 1, got %v", r.JFISeries[0])
	}
	if len(r.Flows[1].Series) != 5 || r.Flows[1].Series[0] != 0 {
		t.Fatalf("late flow should have an empty first interval: %v", r.Flows[1].Series)
	}
}

func TestFig11IdealMatchesWaterFilling(t *testing.T) {
	ideal := ChainIdeal(CanonicalChain(FIFO, 0, 0))
	if len(ideal) != 22 {
		t.Fatalf("22 flows expected, got %d", len(ideal))
	}
	approx := func(got, want float64) bool { return got > want*0.999 && got < want*1.001 }
	// Allocator units are bits/sec: long flows 6.25 Mbps.
	if !approx(ideal[0], 6.25e6) {
		t.Fatalf("long flow ideal %v, want 6.25e6", ideal[0])
	}
	if !approx(ideal[8], 25e6) || !approx(ideal[10], 6.25e6) || !approx(ideal[18], 12.5e6) {
		t.Fatalf("cross ideals wrong: bic=%v vegas=%v cubic=%v", ideal[8], ideal[10], ideal[18])
	}
}

func TestTable3MatchesPaperBallpark(t *testing.T) {
	rows := Table3()
	if len(rows) != 2 {
		t.Fatalf("two configurations expected")
	}
	one, two := rows[0].Usage, rows[1].Usage
	if one.CacheStages != 1 || two.CacheStages != 2 {
		t.Fatal("stage ordering wrong")
	}
	// Paper: 937b/1042b PHV, 2448/4096 KB SRAM, 15/34 KB TCAM, 89/93 VLIW,
	// 11 stages, 64 queues. The model must land within ~15%.
	within := func(got, want, tol float64) bool { return got >= want*(1-tol) && got <= want*(1+tol) }
	if !within(float64(one.PHVBits), 937, 0.15) || !within(float64(two.PHVBits), 1042, 0.15) {
		t.Fatalf("PHV off: %d/%d", one.PHVBits, two.PHVBits)
	}
	if !within(float64(one.SRAMKB), 2448, 0.15) || !within(float64(two.SRAMKB), 4096, 0.15) {
		t.Fatalf("SRAM off: %d/%d", one.SRAMKB, two.SRAMKB)
	}
	if !within(float64(one.VLIWInstrs), 89, 0.15) || !within(float64(two.VLIWInstrs), 93, 0.15) {
		t.Fatalf("VLIW off: %d/%d", one.VLIWInstrs, two.VLIWInstrs)
	}
	if one.Queues != 64 || two.Queues != 64 {
		t.Fatalf("queues off: %d/%d", one.Queues, two.Queues)
	}
	if !rows[0].Fits || !rows[1].Fits {
		t.Fatal("both builds must fit the Tofino budget")
	}
}

// scoreFig13 scores Fig13Points from index from on, at trials per point.
func scoreFig13(trials, from int) []Fig13Point {
	cfg := DefaultFig13Config(Quick)
	cfg.Trials = trials
	pts := Fig13Points()[from:]
	for i, p := range pts {
		pts[i] = Fig13Score(cfg, p.Stages, p.Slots, p.Interval)
	}
	return pts
}

func TestFig13AccuracyTrends(t *testing.T) {
	pts := scoreFig13(3, fig13PanelA) // panel (b)
	// Collect FNR by stages at the largest slot count.
	fnr := map[int]float64{}
	for _, p := range pts {
		if p.Slots == 4096 {
			fnr[p.Stages] = p.FNR
		}
		if p.FPR > 0.01 {
			t.Fatalf("FPR must stay tiny (paper: <10⁻⁴ scale): %+v", p)
		}
	}
	if fnr[4] > fnr[1]+1e-9 {
		t.Fatalf("more stages must not worsen FNR: %v", fnr)
	}
	// More slots reduce (or hold) FNR for the 1-stage cache.
	var fnr512, fnr4096 float64
	for _, p := range pts {
		if p.Stages == 1 && p.Slots == 512 {
			fnr512 = p.FNR
		}
		if p.Stages == 1 && p.Slots == 4096 {
			fnr4096 = p.FNR
		}
	}
	if fnr4096 > fnr512+0.05 {
		t.Fatalf("more slots should not worsen FNR: 512→%v 4096→%v", fnr512, fnr4096)
	}
}

// TestFig7Reproduction is the headline behavioural check: Cebinae must
// dramatically improve the Vegas-starvation JFI over FIFO (paper: 0.093 →
// 0.984) and cut the NewReno flow's capture.
func TestFig7Reproduction(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	rs := sectionValues[Result](t, benchSection(t, Medium, "fig7"))
	fifo, ceb := rs[0], rs[1]
	if ceb.JFI < fifo.JFI+0.3 {
		t.Fatalf("Cebinae JFI %.3f vs FIFO %.3f: insufficient improvement", ceb.JFI, fifo.JFI)
	}
	if ceb.JFI < 0.85 {
		t.Fatalf("Cebinae JFI %.3f below reproduction bar", ceb.JFI)
	}
	renoFIFO := fifo.Flows[16].GoodputBps
	renoCeb := ceb.Flows[16].GoodputBps
	if renoCeb > renoFIFO/2 {
		t.Fatalf("NewReno capture not curtailed: %.1f → %.1f Mbps", renoFIFO/1e6, renoCeb/1e6)
	}
}

func TestRenderersProduceOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	out := RenderTable3(Table3())
	if !strings.Contains(out, "SRAM") {
		t.Fatal("table 3 renderer broken")
	}
	if out := renderSection(t, benchSection(t, Quick, "fig1"), fleet.Options{}); !strings.Contains(out, "Cebinae") {
		t.Fatalf("fig1 renderer broken:\n%s", out)
	}
	if !strings.Contains(RenderFig13(scoreFig13(2, 0)), "FNR") {
		t.Fatal("fig13 renderer broken")
	}
}
