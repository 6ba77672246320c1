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

// TestShardDifferentialParkingLot is the sharded engine's correctness
// gate on the multi-bottleneck chain — the topology where sharding
// actually splits work across up to four engines (one per switch) — under
// both FIFO and Cebinae bottlenecks: every shard count must reproduce the
// single-engine event count and goodputs. `make race-shard` runs it under
// the race detector, which exercises the barrier protocol and the SPSC
// handoff queues.
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
