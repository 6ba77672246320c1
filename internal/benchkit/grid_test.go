package benchkit

import (
	"runtime"
	"strings"
	"testing"

	"cebinae/internal/netem"
	"cebinae/internal/shard"
)

// TestProcsLadder: powers of two, ascending, starting at 1, capped at 8
// and at the machine's core count.
func TestProcsLadder(t *testing.T) {
	ladder := ProcsLadder()
	if len(ladder) == 0 || ladder[0] != 1 {
		t.Fatalf("ladder %v must start at 1", ladder)
	}
	for i, p := range ladder {
		if p > 8 || p > runtime.NumCPU() {
			t.Errorf("ladder entry %d exceeds the cap: %v", p, ladder)
		}
		if i > 0 && p != ladder[i-1]*2 {
			t.Errorf("ladder %v is not successive doubling", ladder)
		}
	}
}

// TestGridSpecsShape: one uniquely named cell per (family, shards, procs)
// point, and every grid name parses back into the family/shards=/procs=
// scheme attachSpeedups keys on.
func TestGridSpecsShape(t *testing.T) {
	specs := GridSpecs()
	want := len(ProcsLadder()) * len(gridShards) * 2
	if len(specs) != want {
		t.Fatalf("%d grid specs, want %d", len(specs), want)
	}
	seen := make(map[string]bool, len(specs))
	for _, s := range specs {
		if seen[s.Name] {
			t.Errorf("duplicate grid spec %q", s.Name)
		}
		seen[s.Name] = true
		if s.Fn == nil {
			t.Errorf("grid spec %q has no body", s.Name)
		}
		if !strings.Contains(s.Name, "/shards=") || !strings.Contains(s.Name, "/procs=") {
			t.Errorf("grid spec %q does not follow the family/shards=N/procs=P scheme", s.Name)
		}
	}
	if !seen[gridName("ChainE2E", 1, 1)] || !seen[gridName("Dumbbell4", 4, 1)] {
		t.Errorf("expected baseline cells missing from %v", specs)
	}
}

// TestSuiteSpecNames: the full suite embeds the grid after the serial
// entries, and the heavy tier stays out of the default list.
func TestSuiteSpecNames(t *testing.T) {
	names := make(map[string]bool)
	for _, s := range Specs() {
		if names[s.Name] {
			t.Errorf("duplicate spec %q", s.Name)
		}
		names[s.Name] = true
	}
	for _, want := range []string{"EngineDispatch", "NetemForwardInFlight", "Backbone", ChainSpecName(1), gridName("ChainE2E", 4, 1)} {
		if !names[want] {
			t.Errorf("suite is missing %q", want)
		}
	}
	if names["BackboneHeavy"] {
		t.Error("heavy tier leaked into the default suite")
	}
	heavy := HeavySpecs()
	if len(heavy) != 1 || heavy[0].Name != "BackboneHeavy" || heavy[0].Fn == nil {
		t.Errorf("heavy specs %+v, want the BackboneHeavy entry", heavy)
	}
}

// TestAttachSpeedups: the metric is the same-procs shards=1 ns/op over
// this row's, attached only where both rows exist and measured.
func TestAttachSpeedups(t *testing.T) {
	results := []Result{
		{Name: gridName("ChainE2E", 1, 1), NsPerOp: 100},
		{Name: gridName("ChainE2E", 2, 1), NsPerOp: 50},
		{Name: gridName("ChainE2E", 4, 1), NsPerOp: 25},
		{Name: gridName("Dumbbell4", 2, 1), NsPerOp: 80}, // no shards=1 base row
		{Name: "Backbone", NsPerOp: 10},
	}
	attachSpeedups(results)
	if got := results[1].Metrics["speedup"]; got != 2 {
		t.Errorf("shards=2 speedup %v, want 2", got)
	}
	if got := results[2].Metrics["speedup"]; got != 4 {
		t.Errorf("shards=4 speedup %v, want 4", got)
	}
	if results[3].Metrics != nil {
		t.Errorf("baseless Dumbbell4 row gained metrics %v", results[3].Metrics)
	}
	if results[0].Metrics != nil || results[4].Metrics != nil {
		t.Error("speedup attached to a base or non-grid row")
	}
}

// TestDumbbell4AutoPlanFindsFourRegions pins the grid topology's design
// point: the min-cut planner must split the 12-flow dumbbell into four
// regions by cutting the ~20 ms sender access links — the configuration
// the Dumbbell4 cells claim to measure.
func TestDumbbell4AutoPlanFindsFourRegions(t *testing.T) {
	p := shard.AutoPlan(4, func(f netem.Fabric) { buildDumbbell4(f) })
	if p.Shards != 4 {
		t.Fatalf("planner found %d regions, want 4", p.Shards)
	}
	if p.Lookahead < 1e7 {
		t.Fatalf("lookahead %d; cutting sender access links should buy ~2e7", p.Lookahead)
	}
}

// TestRunChainShardedMatchesSerial covers the shared chain body: the
// 2-shard auto-partitioned run must process exactly the events of the
// single-engine run (the full byte-identity differential lives in
// experiments/; this pins the benchmark harness wiring itself).
func TestRunChainShardedMatchesSerial(t *testing.T) {
	serial := runChain(1)
	sharded := runChain(2)
	if serial.Processed() == 0 {
		t.Fatal("serial chain run processed no events")
	}
	if sharded.Processed() != serial.Processed() {
		t.Fatalf("2-shard chain processed %d events, serial %d", sharded.Processed(), serial.Processed())
	}
	if sharded.Stats.Windows == 0 {
		t.Fatal("sharded run recorded no windows")
	}
}

// TestReportClusterMetrics: the barrier metrics ride along as
// b.ReportMetric extras, and a windowless (single-engine) run reports
// nothing.
func TestReportClusterMetrics(t *testing.T) {
	r := testing.Benchmark(func(b *testing.B) {
		reportClusterMetrics(b, shard.RunStats{Windows: 10, BarrierStallNs: 1500})
	})
	if got := r.Extra["stall-ns/window"]; got != 150 {
		t.Errorf("stall-ns/window %v, want 150", got)
	}
	if _, ok := r.Extra["windows/op"]; !ok {
		t.Error("windows/op metric missing")
	}
	r = testing.Benchmark(func(b *testing.B) {
		reportClusterMetrics(b, shard.RunStats{})
	})
	if len(r.Extra) != 0 {
		t.Errorf("windowless run reported %v", r.Extra)
	}
}

// TestWithProcs: the wrapper pins GOMAXPROCS for the body and restores
// the previous value afterwards.
func TestWithProcs(t *testing.T) {
	before := runtime.GOMAXPROCS(0)
	saw := 0
	testing.Benchmark(withProcs(1, func(b *testing.B) {
		saw = runtime.GOMAXPROCS(0)
	}))
	if saw != 1 {
		t.Errorf("body ran at GOMAXPROCS %d, want 1", saw)
	}
	if after := runtime.GOMAXPROCS(0); after != before {
		t.Errorf("GOMAXPROCS left at %d, was %d", after, before)
	}
}
