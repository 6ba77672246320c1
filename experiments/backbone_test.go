package experiments

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"cebinae/internal/packet"
	"cebinae/internal/sim"
	"cebinae/internal/trace"
)

// backboneTestTier is a scaled-down tier for the differential and smoke
// tests: enough standing flows to exercise the arena across chunks and the
// stress instrumentation, small enough to run three shard variants in a
// normal test budget.
func backboneTestTier() BackboneConfig {
	cfg := BackboneTier(2000, Quick)
	cfg.Trace.Seed = 5
	return cfg
}

// TestBackboneShardDifferential is the backbone family's correctness gate:
// the same tier run at 1, 2, 3, and 4 shards must produce byte-identical
// rendered reports and identical event counts. The min-cut planner cuts
// the core link at two shards and the 200 µs access links beyond that
// (three shards co-locate src with dst and cut all three links; four give
// every node its own shard), so the replay data path and the closed-loop
// feedback path cross cut access links — the regime where same-nanosecond
// ties between injected arrivals and the core queue's own events are
// systematic and only the emission-stamped (time, emission, seq) order
// keeps the interleaving identical to a single merged engine.
func TestBackboneShardDifferential(t *testing.T) {
	cfg := backboneTestTier()
	cfg.Shards = 1
	want := RunBackbone(cfg)
	ref := want.Render()
	for _, n := range []int{2, 3, 4} {
		cfg.Shards = n
		got := RunBackbone(cfg)
		if got.Events != want.Events {
			t.Errorf("shards=%d: event count %d, want %d (single-engine)", n, got.Events, want.Events)
		}
		if r := got.Render(); r != ref {
			t.Errorf("shards=%d: report not byte-identical to single-engine run:\n--- shards=1 ---\n%s--- shards=%d ---\n%s", n, ref, n, r)
		}
	}
}

// TestBackboneSmoke checks the tier's substance on one run: the standing
// population is actually concurrent, the core actually congests, the closed
// loop actually reacts, and the cardinality instrumentation scores against
// real truth.
func TestBackboneSmoke(t *testing.T) {
	cfg := backboneTestTier()
	res := RunBackbone(cfg)

	if res.PeakActive < cfg.Flows {
		t.Errorf("peak concurrency %d below the standing population %d", res.PeakActive, cfg.Flows)
	}
	if res.FlowsSeen < cfg.Flows {
		t.Errorf("core saw %d flows, want at least the standing %d", res.FlowsSeen, cfg.Flows)
	}
	if res.UtilizationPct <= 0 || res.UtilizationPct > 100.5 {
		t.Errorf("implausible core utilization %.2f%%", res.UtilizationPct)
	}
	if res.SketchUnderestimates != 0 {
		t.Errorf("count-min undercounted %d of the top-%d flows", res.SketchUnderestimates, topK)
	}
	if res.CacheRecallTopK < 0.5 {
		t.Errorf("polled cache recalled only %.3f of the true top-%d", res.CacheRecallTopK, topK)
	}
	if res.MaxMinFlows != res.FlowsSeen {
		t.Errorf("max-min allocated %d flows, observer saw %d", res.MaxMinFlows, res.FlowsSeen)
	}
	if res.MaxMinSumBps > cfg.CoreBps*1.0001 {
		t.Errorf("max-min allocation %.0f bps exceeds core capacity %.0f", res.MaxMinSumBps, cfg.CoreBps)
	}
	if res.CebStats.Rotations == 0 {
		t.Error("Cebinae core never rotated")
	}
	out := res.Render()
	for _, want := range []string{"Backbone tier", "hhcache", "cmsketch", "maxmin", "events:"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// TestBackbone100kTier runs the named 1e5 tier end to end — the scale claim
// behind the benchmark row, verified in-tree (skipped under -short). Its
// rendered report, events line included, is pinned by sha256: the max-min
// scoring runs hundreds of water-filling rounds here, where the 1 %-scale
// golden of TestReportSectionsGolden runs a few.
func TestBackbone100kTier(t *testing.T) {
	if testing.Short() {
		t.Skip("1e5-flow tier skipped in short mode")
	}
	res := RunBackbone(BackboneTier(100_000, Quick))
	if res.PeakActive < 100_000 {
		t.Fatalf("peak concurrency %d, want >= 100000", res.PeakActive)
	}
	if res.Finished == 0 || res.SinkPackets == 0 {
		t.Fatalf("tier did not run to completion: %d finished, %d delivered", res.Finished, res.SinkPackets)
	}
	if res.RateCuts == 0 {
		t.Fatal("closed loop idle at 1e5 flows: no rate cuts")
	}
	const want = "83f8dc94bfaa8b4d9e1053a8e4c9bf1e23ccb16c100f3a126ad5ea9ed66aecca"
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(res.Render()))); got != want {
		t.Errorf("1e5 tier report sha256 %s, want %s:\n%s", got, want, res.Render())
	}
}

// TestBackboneBytesPerFlow pins what the quick 1e5 backbone tier allocates
// over its whole run — schedule, arena, sink, observer truth, scoring —
// per started flow. It read 374 B when pinned (690 B while a flow record
// was 192 B, a t = 0 burst put one first-send timer per flow on the heap
// and the schedule, sink table and scoring copy regrew by append); the
// bound is that reading plus 10 %.
func TestBackboneBytesPerFlow(t *testing.T) {
	if testing.Short() {
		t.Skip("1e5-flow tier skipped in short mode")
	}
	const maxBytesPerFlow = 411
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res := RunBackbone(BackboneTier(100_000, Quick))
	runtime.ReadMemStats(&m1)
	perFlow := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(res.Started)
	t.Logf("%d flows started, %.1f B allocated per flow", res.Started, perFlow)
	if perFlow > maxBytesPerFlow {
		t.Fatalf("1e5 backbone tier allocates %.1f B per started flow, want at most %d", perFlow, maxBytesPerFlow)
	}
}

// scoringFixture is an observer of n flows with eight distinct byte
// totals (so water-filling takes eight rounds) and a poller that held
// the first flow, as the core would have left them.
func scoringFixture(n int) (*backboneObserver, *backbonePoller, BackboneConfig) {
	obs := &backboneObserver{truth: make([]trace.FlowCount, n+1)}
	for i := 1; i <= n; i++ {
		key := packet.FlowKey{Src: 1, Dst: 2, SrcPort: uint16(i), DstPort: uint16(i >> 16), Proto: packet.ProtoTCP}
		obs.truth[i] = trace.FlowCount{Flow: key, Bytes: int64(1000 * (1 + i%8))}
	}
	poller := &backbonePoller{held: map[packet.FlowKey]bool{obs.truth[1].Flow: true}}
	return obs, poller, BackboneConfig{CoreBps: 10e9, Duration: sim.Duration(1e9)}
}

// TestBackboneScoringAllocs pins the scoring pass's allocations: ranking,
// cache recall, building the sketch and its bias, and the ideal max-min
// allocation over every observed flow cost the same number of allocations
// at 1 000 flows as at 8 000 (eight demand levels keep water-filling to
// eight rounds). One route slice per flow made it grow by one allocation
// a flow. Each call builds a 2 MB sketch, which sets off collections;
// the forced GC first starts the collector's background workers, whose
// start allocates, so that lands in neither count.
func TestBackboneScoringAllocs(t *testing.T) {
	runtime.GC()
	allocs := func(n int) float64 {
		obs, poller, cfg := scoringFixture(n)
		return testing.AllocsPerRun(2, func() {
			var res BackboneResult
			scoreBackbone(&res, obs, poller, cfg)
			if res.MaxMinFlows != n {
				t.Fatalf("scored %d flows of %d", res.MaxMinFlows, n)
			}
		})
	}
	if small, large := allocs(1000), allocs(8000); small != large {
		t.Fatalf("scoring allocates %.0f objects at 1 000 flows and %.0f at 8 000, want the same", small, large)
	}
}

// TestBackboneScoringRepeats scores one observer twice: the sketch is
// built from the truth on each call, so nothing may carry over between
// them. A sketch kept across calls would double every estimate on the
// second.
func TestBackboneScoringRepeats(t *testing.T) {
	obs, poller, cfg := scoringFixture(3000)
	var first, second BackboneResult
	scoreBackbone(&first, obs, poller, cfg)
	scoreBackbone(&second, obs, poller, cfg)
	if first != second {
		t.Fatalf("second scoring differs from the first:\n first  %+v\n second %+v", first, second)
	}
	if first.SketchUnderestimates != 0 || first.FlowsSeen != 3000 {
		t.Fatalf("fixture scored %d flows with %d underestimates", first.FlowsSeen, first.SketchUnderestimates)
	}
}
