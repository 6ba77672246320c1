package experiments

import (
	"crypto/sha256"
	"fmt"
	"regexp"
	"strings"
	"testing"

	"cebinae/internal/core"
	"cebinae/internal/tcp"
)

// TestCCGolden is the byte gate for every registered congestion control:
// two flows of the CCA at 20 ms against two NewReno flows at 40 ms through
// FIFO and through Cebinae, event count and digest of the rest of Report()
// against testdata/cc_golden.txt. The digests were recorded at the commit
// before one event per packet-hop, and the report bytes behind them at the
// commit before the shared reno base; a change that moves only how many
// events a run takes moves only the events column.
func TestCCGolden(t *testing.T) {
	var b strings.Builder
	for _, cc := range tcp.CCNames() {
		for _, q := range []QdiscKind{FIFO, Cebinae} {
			r := Run(Scenario{
				BottleneckBps: 100e6,
				BufferBytes:   250 * 1500,
				Groups: []FlowGroup{
					{CC: cc, Count: 2, RTT: ms(20)},
					{CC: "newreno", Count: 2, RTT: ms(40)},
				},
				Duration: Seconds(5),
				Qdisc:    q,
				Seed:     7,
			})
			report := eventCount.ReplaceAllString(r.Report(), "events=")
			fmt.Fprintf(&b, "%s %s events=%d report=%x\n", cc, q, r.Events, sha256.Sum256([]byte(report)))
		}
	}
	checkGolden(t, "cc_golden.txt", b.String())
}

// eventCount is the engine event count a report prints.
var eventCount = regexp.MustCompile(`events=\d+`)

// TestDumbbellPathsGolden pins, events included, one NewReno cell for each
// dumbbell path TestCCGolden does not take: the FQ-CoDel, strawman, AFQ
// and PCQ bottlenecks, Cebinae under a Params override, a sampled Cebinae
// run with a late group, and an access-limited run. report_sections.txt
// masks events, so this is where an event drift on these paths shows.
func TestDumbbellPathsGolden(t *testing.T) {
	base := Scenario{
		BottleneckBps: 100e6,
		BufferBytes:   250 * 1500,
		Groups: []FlowGroup{
			{CC: "newreno", Count: 2, RTT: ms(20)},
			{CC: "newreno", Count: 2, RTT: ms(40)},
		},
		Duration: Seconds(3),
		Seed:     7,
	}
	override := core.DefaultParams(base.BottleneckBps, base.BufferBytes, ms(40))
	override.Tau = 0.05
	cells := []struct {
		name   string
		mutate func(*Scenario)
	}{
		{"fq", func(s *Scenario) { s.Qdisc = FQ }},
		{"strawman", func(s *Scenario) { s.Qdisc = Strawman }},
		// Behind a 3 MB buffer, a 200 ms flow's backlog outruns the
		// 409.6 kB calendar horizon, where AFQ drops and PCQ squashes.
		{"afq", func(s *Scenario) { s.Qdisc, s.BufferBytes, s.Groups[1].RTT = AFQ, 2000*1500, ms(200) }},
		{"pcq", func(s *Scenario) { s.Qdisc, s.BufferBytes, s.Groups[1].RTT = PCQ, 2000*1500, ms(200) }},
		{"cebinae-params", func(s *Scenario) { s.Qdisc, s.Params = Cebinae, &override }},
		{"cebinae-sampled-late", func(s *Scenario) {
			s.Qdisc, s.SampleInterval = Cebinae, ms(500)
			s.Groups = append(s.Groups, FlowGroup{CC: "newreno", Count: 1, RTT: ms(30), StartAt: Seconds(2)})
		}},
		{"fifo-access", func(s *Scenario) { s.Qdisc, s.AccessBps = FIFO, 20e6 }},
	}
	var b strings.Builder
	for _, c := range cells {
		s := base
		s.Groups = append([]FlowGroup(nil), base.Groups...)
		c.mutate(&s)
		r := Run(s)
		fmt.Fprintf(&b, "%s events=%d report=%x\n", c.name, r.Events, sha256.Sum256([]byte(r.Report())))
	}
	checkGolden(t, "dumbbell_paths_golden.txt", b.String())
}
