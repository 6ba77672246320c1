package benchkit

import (
	"flag"
	"fmt"
	"testing"

	"cebinae/internal/netem"
	"cebinae/internal/packet"
	"cebinae/internal/qdisc"
	"cebinae/internal/sim"
	"cebinae/internal/tcp"
)

func BenchmarkEngineDispatch(b *testing.B)       { EngineDispatch(b) }
func BenchmarkTimerChurn(b *testing.B)           { TimerChurn(b) }
func BenchmarkNetemForward(b *testing.B)         { NetemForward(b) }
func BenchmarkNetemForwardInFlight(b *testing.B) { NetemForwardInFlight(b) }
func BenchmarkDumbbellE2E(b *testing.B)          { DumbbellE2E(b) }

func BenchmarkChainE2E(b *testing.B) {
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), ChainE2EShards(shards))
	}
}

// TestEngineDispatchZeroAlloc pins the tentpole invariant: the typed
// fast-path schedule+dispatch cycle performs no allocation at steady state.
func TestEngineDispatchZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	l := &dispatchLoop{eng: eng}
	// Warm: the first ScheduleCall allocates the one event the loop reuses.
	l.remaining = 2
	eng.ScheduleCall(1, l, nil)
	eng.RunAll()
	allocs := testing.AllocsPerRun(100, func() {
		l.remaining = 10
		eng.ScheduleCall(1, l, nil)
		eng.RunAll()
	})
	if allocs != 0 {
		t.Fatalf("typed dispatch cycle allocates %.1f objects/run, want 0", allocs)
	}
}

// TestTimerChurnZeroAlloc pins the Timer surface: re-arming a standing
// population of wheel-resident timers allocates nothing.
func TestTimerChurnZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	h := timerNopHandler{}
	const depth = 64
	var tms [depth]sim.Timer
	for i := range tms {
		eng.ArmTimer(&tms[i], sim.Time(i+1)*sim.Time(1e6), h, nil)
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		slot := i % depth
		i++
		eng.ArmTimer(&tms[slot], sim.Time(slot+1)*sim.Time(1e6), h, nil)
	})
	if allocs != 0 {
		t.Fatalf("timer re-arm churn allocates %.1f objects/op, want 0", allocs)
	}
}

// TestTCPRTTZeroAlloc pins the full transport timer plane: at steady
// state, a round-trip's worth of simulated TCP — pacing and RTO timer
// re-arms, delayed-ACK arms/cancels, SACK scoreboard updates, sent-record
// recycling — runs without allocating.
func TestTCPRTTZeroAlloc(t *testing.T) {
	const rtt = sim.Time(20e6)
	eng := sim.NewEngine()
	w := netem.NewNetwork(eng)
	d := netem.BuildDumbbell(w, netem.DumbbellConfig{
		FlowCount:       1,
		BottleneckBps:   100e6,
		BottleneckDelay: sim.Time(0.1e6),
		RTTs:            []sim.Time{rtt},
		BottleneckQdisc: func(dev *netem.Device) netem.Qdisc { return qdisc.NewFIFO(450 * 1500) },
		DefaultQdisc:    func() netem.Qdisc { return qdisc.NewFIFO(16 << 20) },
	})
	key := packet.FlowKey{Src: d.Senders[0].ID, Dst: d.Receivers[0].ID, SrcPort: 1, DstPort: 2, Proto: packet.ProtoTCP}
	tcp.NewConn(eng, d.Senders[0], tcp.Config{Key: key})
	tcp.NewReceiver(eng, d.Receivers[0], tcp.ReceiverConfig{Key: key, DelAckCount: 2})
	// Warm well past slow start so pools, rings, and the scoreboard have
	// reached their steady-state sizes.
	horizon := sim.Time(2e9)
	eng.Run(horizon)
	allocs := testing.AllocsPerRun(20, func() {
		horizon += rtt
		eng.Run(horizon)
	})
	if allocs != 0 {
		t.Fatalf("one RTT of steady-state TCP allocates %.1f objects, want 0", allocs)
	}
}

// qdisc, persistent transmit event, and wire-stream entry together
// move a packet across a hop without allocating.
func TestNetemForwardZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	w := netem.NewNetwork(eng)
	a, c := w.NewNode("a"), w.NewNode("b")
	da, db := w.Connect(a, c, netem.LinkConfig{RateBps: 1e9, Delay: 1000})
	da.SetQdisc(qdisc.NewFIFO(1 << 20))
	db.SetQdisc(qdisc.NewFIFO(1 << 20))
	key := packet.FlowKey{Src: a.ID, Dst: c.ID, SrcPort: 1, DstPort: 2, Proto: packet.ProtoTCP}
	c.Register(key, nullEndpoint{})
	a.AddRoute(c.ID, da)
	forward := func() {
		p := a.AllocPacket()
		p.Flow = key
		p.Size = 1500
		p.PayloadSize = 1448
		a.Inject(p)
		eng.RunAll()
	}
	forward() // warm pool + free lists
	allocs := testing.AllocsPerRun(100, forward)
	if allocs != 0 {
		t.Fatalf("forwarding hot path allocates %.1f objects/run, want 0", allocs)
	}
	if reuses := w.Pool().Reuses; reuses == 0 {
		t.Fatal("packet pool never recycled a packet")
	}
}

// TestNetemForwardInFlightZeroAlloc pins the same path with the wire full:
// thousands of packets in propagation ride entry blocks recycled through
// the engine's free list, so a standing bandwidth-delay product costs no
// allocation per packet either.
func TestNetemForwardInFlightZeroAlloc(t *testing.T) {
	const standing = 5000
	r := newInFlightRig(standing)
	r.forward(2 * standing)
	if got := r.eng.Pending(); got < 4096 {
		t.Fatalf("%d events pending, want at least 4096 packets in flight", got)
	}
	allocs := testing.AllocsPerRun(20, func() { r.forward(1000) })
	if allocs != 0 {
		t.Fatalf("forwarding with %d packets in flight allocates %.1f objects per 1000 packets, want 0", standing, allocs)
	}
}

func BenchmarkBackbone(b *testing.B) { Backbone(b) }

// TestBackboneSteadyStateAllocs pins the benchmark rig's send path at full
// population: once the 10^5-flow admission burst has run, advancing the
// closed-loop replay costs effectively nothing per packet — the residue is
// flow churn (free-list growth, feedback-index resizing), amortised well
// below one allocation per hundred packets. (The replay package pins the
// per-packet path at exactly zero on a single flow; this covers the same
// path at the cardinality the Backbone benchmark reports.)
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

// TestRunSuiteSmoke drives the CLI's snapshot entry point (RunAll →
// testing.Benchmark over every default spec, then the grid speedup
// attachment) at one iteration per benchmark, so the suite plumbing is
// exercised by `go test` and not only by `cebinae-bench -benchjson`.
// Timing from a single iteration is meaningless and not asserted; the
// FastForward row's error metric is timing-independent and must hold the
// differential gate's bound even here.
func TestRunSuiteSmoke(t *testing.T) {
	bt := flag.Lookup("test.benchtime")
	if bt == nil {
		t.Fatal("test.benchtime flag not registered")
	}
	prev := bt.Value.String()
	if err := flag.Set("test.benchtime", "1x"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := flag.Set("test.benchtime", prev); err != nil {
			t.Errorf("restoring test.benchtime: %v", err)
		}
	}()

	results := RunAll()
	if want := len(Specs()); len(results) != want {
		t.Fatalf("RunAll returned %d results, want %d", len(results), want)
	}
	byName := make(map[string]Result, len(results))
	for _, r := range results {
		if r.NsPerOp <= 0 {
			t.Errorf("%s: non-positive ns/op %v", r.Name, r.NsPerOp)
		}
		byName[r.Name] = r
	}
	ff, ok := byName["FastForward"]
	if !ok {
		t.Fatal("suite missing the FastForward row")
	}
	for _, m := range []string{"speedup", "eventsx", "errpct"} {
		if _, ok := ff.Metrics[m]; !ok {
			t.Errorf("FastForward row missing %q metric", m)
		}
	}
	if err := ff.Metrics["errpct"]; err > 1 {
		t.Errorf("FastForward errpct %.3f above the 1%% differential bound", err)
	}
}

// TestResultOfCarriesMetrics: b.ReportMetric extras must survive the
// flattening into the BENCH_baseline.json row shape.
func TestResultOfCarriesMetrics(t *testing.T) {
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Sink++
		}
		b.ReportMetric(12345, "flows/s")
		b.ReportMetric(96, "B/flow")
	})
	res := resultOf("probe", r)
	if res.Name != "probe" || res.Metrics["flows/s"] != 12345 || res.Metrics["B/flow"] != 96 {
		t.Fatalf("metrics lost in flattening: %+v", res)
	}
}
