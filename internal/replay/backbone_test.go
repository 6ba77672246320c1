package replay_test

import (
	"runtime"
	"testing"

	"cebinae/internal/core"
	"cebinae/internal/netem"
	"cebinae/internal/qdisc"
	"cebinae/internal/replay"
	"cebinae/internal/sim"
	"cebinae/internal/trace"
)

// The backbone rig drives the replay path at its design point — a standing
// population of 10⁵ closed-loop flows through a Cebinae core — with none of
// the experiments package's scoring instrumentation (no sketch, no cache,
// no truth map), so what it measures is the replay+netem+core data path
// alone.

const (
	backboneFlows   = 100_000
	backboneHorizon = sim.Time(40e6) // 40 ms simulated per op
)

func backboneSchedule() []trace.FlowSpec {
	tc := trace.DefaultConfig()
	tc.Duration = backboneHorizon
	tc.StandingFlows = backboneFlows
	tc.LifetimeScale = float64(backboneFlows) / 2000
	tc.LinkBps = 0 // no offline thinning: the replay loop paces live
	tc.Seed = 1
	return trace.Flows(tc)
}

type backboneRig struct {
	eng      *sim.Engine
	src, dst *netem.Node
}

// newBackboneRig builds the src—sw1═(10G core, Cebinae)═sw2—dst chain with
// both route directions (feedback flows back), but no senders yet.
func newBackboneRig() *backboneRig {
	eng := sim.NewEngine()
	w := netem.NewNetwork(eng)
	src, sw1 := w.NewNode("src"), w.NewNode("sw1")
	sw2, dst := w.NewNode("sw2"), w.NewNode("dst")
	edge := func() netem.Qdisc { return qdisc.NewFIFO(64 << 20) }
	access := netem.LinkConfig{RateBps: 40e9, Delay: sim.Time(200e3), QdiscFactory: edge}
	coreLink := netem.LinkConfig{RateBps: 10e9, Delay: sim.Time(2e6), QdiscFactory: edge}
	sa, as := w.Connect(src, sw1, access)
	bb, bb2 := w.Connect(sw1, sw2, coreLink)
	sd, ds := w.Connect(sw2, dst, access)

	rtt := 2 * sim.Time(2e6+2*200e3)
	cq := core.New(eng, 10e9, 8<<20, core.DefaultParams(10e9, 8<<20, rtt))
	cq.OnDrain = bb.Kick
	bb.SetQdisc(cq)

	src.AddRoute(dst.ID, sa)
	sw1.AddRoute(dst.ID, bb)
	sw2.AddRoute(dst.ID, sd)
	dst.AddRoute(src.ID, ds)
	sw2.AddRoute(src.ID, bb2)
	sw1.AddRoute(src.ID, as)
	return &backboneRig{eng: eng, src: src, dst: dst}
}

func (r *backboneRig) attach(schedule []trace.FlowSpec) *replay.Source {
	source := replay.NewSource(r.src, schedule, replay.Config{
		To: r.dst.ID, ClosedLoop: true, ECN: true,
	})
	replay.NewSink(r.dst, replay.SinkConfig{ClosedLoop: true})
	return source
}

// BenchmarkBackbone measures the 10⁵-flow closed-loop replay tier end to
// end, 40 simulated milliseconds per op, and reports flows/s (schedule
// entries retired per wall-clock second) and B/flow (resident heap per
// live flow at full population) beside the standard columns.
func BenchmarkBackbone(b *testing.B) {
	schedule := backboneSchedule()

	// Footprint pre-pass: heap growth from the whole standing
	// population's admission and first sends (records and their pacing
	// timers, arena chunks, feedback index, the first packets queued),
	// amortised per live flow. Both
	// readings follow a forced GC, so the delta is live bytes, not
	// allocator slack.
	rig := newBackboneRig()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	source := rig.attach(schedule)
	rig.eng.RunUntil(1) // t=0 admission burst only
	runtime.GC()
	runtime.ReadMemStats(&m1)
	if source.Stats.PeakActive < backboneFlows {
		b.Fatalf("admission burst left %d of %d flows live", source.Stats.PeakActive, backboneFlows)
	}
	var bytesPerFlow float64
	if m1.HeapAlloc > m0.HeapAlloc {
		bytesPerFlow = float64(m1.HeapAlloc-m0.HeapAlloc) / float64(source.Stats.PeakActive)
	}

	b.ReportAllocs()
	var finished uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rig := newBackboneRig()
		source := rig.attach(schedule)
		rig.eng.RunUntil(backboneHorizon)
		finished += source.Stats.Finished
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(finished)/secs, "flows/s")
	}
	b.ReportMetric(bytesPerFlow, "B/flow")
}

// TestBackboneSteadyStateAllocs pins the benchmark rig's send path at full
// population: once the 10^5-flow admission burst has run, advancing the
// closed-loop replay costs effectively nothing per packet — the residue is
// flow churn (free-list growth, feedback-index resizing), amortised well
// below one allocation per hundred packets. (TestSendSteadyStateZeroAlloc
// pins the per-packet path at exactly zero on a single flow; this covers
// the same path at the cardinality BenchmarkBackbone reports.)
func TestBackboneSteadyStateAllocs(t *testing.T) {
	rig := newBackboneRig()
	source := rig.attach(backboneSchedule())
	// Warm a quarter of the horizon: the admission burst is behind, the
	// packet pool and event heap have reached congestion-depth sizes, and
	// early flow retirements have grown the free list.
	horizon := sim.Time(10e6)
	rig.eng.RunUntil(horizon)
	if source.Stats.PeakActive < backboneFlows {
		t.Fatalf("admission burst left %d of %d flows live", source.Stats.PeakActive, backboneFlows)
	}
	before := source.Stats.SentPackets
	allocs := testing.AllocsPerRun(5, func() {
		horizon += sim.Time(1e6)
		rig.eng.RunUntil(horizon)
	})
	perWindow := float64(source.Stats.SentPackets-before) / 6 // warmup run + 5 measured
	if perWindow == 0 {
		t.Fatal("no packets moved during measurement")
	}
	if perPkt := allocs / perWindow; perPkt > 0.01 {
		t.Fatalf("backbone steady state allocates %.4f objects/packet (%.1f per 1 ms window, %.0f packets), want <= 0.01",
			perPkt, allocs, perWindow)
	}
}
