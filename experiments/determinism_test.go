package experiments

import (
	"reflect"
	"testing"
)

// determinismScenario is a medium dumbbell: mixed CC and RTT groups through
// the Cebinae bottleneck with time-series sampling on, so the comparison
// covers the engine, netem, TCP, the core mechanism, meters, and the
// series/JFI pipelines at once.
func determinismScenario() Scenario {
	return Scenario{
		Name:          "determinism",
		BottleneckBps: 50e6,
		BufferBytes:   1 << 20,
		Groups: []FlowGroup{
			{CC: "newreno", Count: 3, RTT: Millis(20)},
			{CC: "cubic", Count: 2, RTT: Millis(60)},
			{CC: "newreno", Count: 1, RTT: Millis(40), StartAt: Seconds(1)},
		},
		Duration:       Seconds(4),
		Qdisc:          Cebinae,
		Seed:           7,
		SampleInterval: Millis(200),
	}
}

// renderResult is Result.Report — kept as a local alias so the
// determinism tests read as comparing canonical byte streams.
func renderResult(r Result) string { return r.Report() }

// differentialScenarios is the scenario family every shard count must
// reproduce byte-for-byte: the full determinism scenario (Cebinae with
// sampling) plus FIFO and FQ variants with different CC mixes, so the
// comparison crosses the engine, netem's cut-link handoff, every
// transport, and the metrics pipeline.
func differentialScenarios() []Scenario {
	base := determinismScenario()

	fifo := base
	fifo.Name, fifo.Qdisc, fifo.Duration = "diff/fifo", FIFO, Seconds(2)
	fifo.Groups = []FlowGroup{
		{CC: "newreno", Count: 2, RTT: Millis(30)},
		{CC: "bbr", Count: 1, RTT: Millis(30)},
		{CC: "vegas", Count: 1, RTT: Millis(80)},
	}

	fq := base
	fq.Name, fq.Qdisc, fq.Duration = "diff/fq", FQ, Seconds(2)
	fq.SampleInterval = 0

	return []Scenario{base, fifo, fq}
}

// TestShardDifferential is the sharded engine's correctness gate: every
// scenario run at 1, 2, 3, and 4 shards must produce byte-identical
// rendered reports and identical event counts. Placement comes from the
// min-cut planner, which on a dumbbell cuts the sender access links (the
// widest window), so the comparison covers cut access links, not just the
// bottleneck. `make race` runs this same test under the race detector,
// which exercises the barrier protocol and the SPSC handoff queues.
func TestShardDifferential(t *testing.T) {
	for _, s := range differentialScenarios() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			s.Shards = 1
			want := Run(s)
			ref := renderResult(want)
			for _, n := range []int{2, 3, 4} {
				s.Shards = n
				got := Run(s)
				if got.Events != want.Events {
					t.Errorf("shards=%d: event count %d, want %d (single-engine)", n, got.Events, want.Events)
				}
				if r := renderResult(got); r != ref {
					t.Errorf("shards=%d: report not byte-identical to single-engine run:\n--- shards=1 ---\n%s--- shards=%d ---\n%s", n, ref, n, r)
				}
			}
		})
	}
}

// TestShardDifferentialParkingLot covers the multi-bottleneck chain — the
// topology where sharding actually splits work across up to four engines
// (one per switch) — under both FIFO and Cebinae bottlenecks.
func TestShardDifferentialParkingLot(t *testing.T) {
	dur := Seconds(2)
	for _, kind := range []QdiscKind{FIFO, Cebinae} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			want := RunChain(CanonicalChain(kind, dur, 1))
			for _, n := range []int{2, 3, 4} {
				got := RunChain(CanonicalChain(kind, dur, n))
				if got.Events != want.Events {
					t.Errorf("shards=%d: event count %d, want %d", n, got.Events, want.Events)
				}
				if !reflect.DeepEqual(got.Goodputs(), want.Goodputs()) {
					t.Errorf("shards=%d: goodputs diverge from single-engine run:\n got %v\nwant %v", n, got.Goodputs(), want.Goodputs())
				}
			}
		})
	}
}

// TestRunDeterminism is the end-to-end determinism regression gate: the same
// scenario run twice in one process must produce an identical event count,
// identical structured results, and byte-identical rendered output. `make
// race` runs this same test under the race detector.
func TestRunDeterminism(t *testing.T) {
	a := Run(determinismScenario())
	b := Run(determinismScenario())

	if a.Events != b.Events {
		t.Errorf("event counts differ between identical runs: %d vs %d", a.Events, b.Events)
	}
	if !reflect.DeepEqual(a.Flows, b.Flows) {
		t.Errorf("flow results differ between identical runs:\n%+v\n%+v", a.Flows, b.Flows)
	}
	if a.CebStats != b.CebStats {
		t.Errorf("cebinae stats differ between identical runs:\n%+v\n%+v", a.CebStats, b.CebStats)
	}
	ra, rb := renderResult(a), renderResult(b)
	if ra != rb {
		t.Errorf("rendered reports are not byte-identical:\n--- run 1 ---\n%s--- run 2 ---\n%s", ra, rb)
	}
}
