package experiments

import (
	"runtime"
	"testing"

	"cebinae/internal/core"
	"cebinae/internal/sim"
)

// TestRunBytesPerSegment pins the memory a run spends per delivered segment
// end to end: Table 2's row-11 cell (32 NewReno + 8 Cubic, 1 Gbps, 5 ms)
// behind FIFO for 5 simulated seconds, everything Run allocates — topology,
// connections, scoreboards, queues, goodput meters — divided by the
// segments the bottleneck carried. Nothing grows with the segment count any
// more: each meter keeps its two marks and each scoreboard the 32-record
// blocks of its window, so the whole run reads ≈ 2.3 B a segment (≈ 0.8 MB
// of set-up over 330 k segments). It read ≈ 7 B with the goodput log's
// ≈ 5 B a segment, and 65 with a 16-byte sample per segment in a doubling
// slice.
func TestRunBytesPerSegment(t *testing.T) {
	s := Table2Scenario(Table2Rows()[10], FIFO, Quick)
	if s.BottleneckBps != 1e9 || len(s.Groups) != 2 || s.Groups[0].Count+s.Groups[1].Count != 40 {
		t.Fatalf("row 11 is not the 40-flow 1 Gbps cell: %+v", s)
	}
	s.Duration = sim.Duration(5e9)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	r := Run(s)
	runtime.ReadMemStats(&m1)
	segments := r.ThroughputBps * s.Duration.Seconds() / 8 / 1500
	if segments < 300e3 {
		t.Fatalf("the bottleneck carried only %.0f segments in 5 s at 1 Gbps", segments)
	}
	per := float64(m1.TotalAlloc-m0.TotalAlloc) / segments
	t.Logf("%.1f B allocated per delivered segment (%.0f segments, %.1f MB)", per, segments, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
	if per > 4 {
		t.Fatalf("Run allocated %.1f B per delivered segment, want ≤ 4", per)
	}
}

// TestRunEventsPerSegment pins the event budget of the dumbbell_fifo_1g
// benchmark workload's traffic (the row-11 cell above behind FIFO, seed 1)
// at a 3-second horizon: engine events dispatched per segment the
// bottleneck carried, ≤ 8.1. A hop costs one event, the arrival, plus a
// transmit completion only when a packet waits behind the one on the link;
// a completion event on every hop reads ≈ 13.
func TestRunEventsPerSegment(t *testing.T) {
	s := Table2Scenario(Table2Rows()[10], FIFO, Quick)
	s.Duration = sim.Duration(3e9)
	s.Seed = 1
	r := Run(s)
	segments := r.ThroughputBps * s.Duration.Seconds() / 8 / 1500
	per := float64(r.Events) / segments
	t.Logf("%.2f events per delivered segment (%d events, %.0f segments)", per, r.Events, segments)
	if per > 8.1 {
		t.Fatalf("Run dispatched %.2f events per delivered segment, want ≤ 8.1", per)
	}
}

// TestRunSteadyStateZeroAlloc pins a warm run at no allocation per ACK
// and none per control round: the dumbbell_cebinae_1g benchmark workload's
// traffic (Table 2's row-11 cell behind Cebinae, seed 1) runs the first
// 10 s of its 20 s horizon, and then the next 100 ms — about 8 000
// ACKs, SACK blocks among them, and a dozen Cebinae control rounds with
// their recomputes — must allocate 0 objects. SACK arrays come back
// through the packet pool and a recompute refills the idle one of two
// configuration banks; with a fresh array per ACK packet that first
// carried blocks and a fresh shadow config per recompute, this window
// allocated 38 objects. What a warm run still allocates follows the
// windows, not the packets: a flow whose window reaches a new peak takes
// one more scoreboard block or doubles a host queue's ring — about two
// objects a second across the 40 flows between 10 and 20 s, so a window
// of seconds catches some.
func TestRunSteadyStateZeroAlloc(t *testing.T) {
	s := Table2Scenario(Table2Rows()[10], Cebinae, Quick)
	s.Duration, s.Seed = sim.Duration(20e9), 1
	g := s.graph().start(1)
	cq := g.fwd[0].Qdisc().(*core.Qdisc)
	pool := g.cl.Shard(0).Net.Pool()
	warm := sim.Duration(10e9)
	g.cl.Run(warm)

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	recomputes, sacks, tx := cq.Stats.Recomputes, pool.SackGets, g.fwd[0].Stats().TxPackets
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	g.cl.Run(warm + sim.Duration(100e6))
	runtime.ReadMemStats(&m1)
	recomputes, sacks, tx = cq.Stats.Recomputes-recomputes, pool.SackGets-sacks, g.fwd[0].Stats().TxPackets-tx
	t.Logf("%d objects over %d bottleneck packets, %d ACKs with SACK blocks, %d recomputes", m1.Mallocs-m0.Mallocs, tx, sacks, recomputes)
	if tx < 5000 || sacks == 0 || recomputes == 0 {
		t.Fatalf("the window must carry traffic, SACK blocks and recomputes: %d packets, %d SACK ACKs, %d recomputes", tx, sacks, recomputes)
	}
	if n := m1.Mallocs - m0.Mallocs; n != 0 {
		t.Fatalf("a warm window allocated %d objects, want 0", n)
	}
}
