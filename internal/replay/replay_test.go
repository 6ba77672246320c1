package replay

import (
	"strings"
	"testing"
	"unsafe"

	"cebinae/internal/netem"
	"cebinae/internal/packet"
	"cebinae/internal/qdisc"
	"cebinae/internal/sim"
	"cebinae/internal/trace"
)

// chain is a src—sw1—sw2—dst path with the sw1→sw2 hop as the bottleneck,
// routed in both directions so closed-loop feedback can flow back.
type chain struct {
	eng                *sim.Engine
	net                *netem.Network
	src, sw1, sw2, dst *netem.Node
	uplink, bottleneck *netem.Device
}

func buildChain(bottleneckBps float64, bufBytes int) *chain {
	eng := sim.NewEngine()
	w := netem.NewNetwork(eng)
	c := &chain{eng: eng, net: w}
	c.src = w.NewNode("src")
	c.sw1 = w.NewNode("sw1")
	c.sw2 = w.NewNode("sw2")
	c.dst = w.NewNode("dst")
	fifo := func(limit int) func() netem.Qdisc {
		return func() netem.Qdisc { return qdisc.NewFIFO(limit) }
	}
	access := netem.LinkConfig{RateBps: 50 * bottleneckBps, Delay: sim.Time(200e3), QdiscFactory: fifo(1 << 22)}
	core := netem.LinkConfig{RateBps: bottleneckBps, Delay: sim.Time(2e6), QdiscFactory: fifo(bufBytes)}
	sa, as := w.Connect(c.src, c.sw1, access)
	bb, bb2 := w.Connect(c.sw1, c.sw2, core)
	sd, ds := w.Connect(c.sw2, c.dst, access)
	c.uplink, c.bottleneck = sa, bb
	c.src.AddRoute(c.dst.ID, sa)
	c.sw1.AddRoute(c.dst.ID, bb)
	c.sw2.AddRoute(c.dst.ID, sd)
	c.dst.AddRoute(c.src.ID, ds)
	c.sw2.AddRoute(c.src.ID, bb2)
	c.sw1.AddRoute(c.src.ID, as)
	return c
}

// spec builds a FlowSpec with a unique port pair derived from id.
func spec(id uint32, at sim.Time, bytes int64, lifetime sim.Time) trace.FlowSpec {
	return trace.FlowSpec{
		At:       at,
		Bytes:    bytes,
		Lifetime: lifetime,
		Key:      packet.FlowKey{SrcPort: uint16(id >> 8), DstPort: uint16(id * 40503), Proto: packet.ProtoTCP},
	}
}

func TestOpenLoopDeliversSchedule(t *testing.T) {
	c := buildChain(100e6, 1<<20)
	schedule := []trace.FlowSpec{
		spec(1, 0, 50_000, sim.Time(20e6)),
		spec(2, sim.Time(1e6), 200_000, sim.Time(50e6)),
		spec(3, sim.Time(5e6), 7_000, sim.Time(5e6)),
	}
	src := NewSource(c.src, schedule, Config{To: c.dst.ID})
	sink := NewSink(c.dst, SinkConfig{})
	c.eng.RunUntil(sim.Time(200e6))

	if !src.Done() {
		t.Fatalf("source not done: %+v", src.Stats)
	}
	if src.Stats.Started != 3 || src.Stats.Finished != 3 {
		t.Fatalf("flow accounting wrong: %+v", src.Stats)
	}
	// Uncongested path: every packet sent is delivered.
	if sink.Stats.Packets != src.Stats.SentPackets {
		t.Fatalf("delivered %d of %d packets on an uncongested path", sink.Stats.Packets, src.Stats.SentPackets)
	}
	if sink.Stats.Finished != 3 {
		t.Fatalf("sink saw %d FINs, want 3", sink.Stats.Finished)
	}
	// Packet counts must match the trace expansion: Bytes/PacketBytes+1.
	want := uint64(0)
	for _, s := range schedule {
		want += uint64(s.Bytes/700) + 1
	}
	if src.Stats.SentPackets != want {
		t.Fatalf("sent %d packets, schedule expands to %d", src.Stats.SentPackets, want)
	}
	if c.src.Unroutable != 0 || c.dst.Unroutable != 0 {
		t.Fatalf("unroutable packets: src=%d dst=%d", c.src.Unroutable, c.dst.Unroutable)
	}
}

func runScheduleFromTrace(t *testing.T, closed bool) (SourceStats, SinkStats, netem.DeviceStats) {
	t.Helper()
	cfg := trace.DefaultConfig()
	cfg.Duration = sim.Time(100e6)
	cfg.FlowsPerMinute = 120000
	cfg.MaxFlowBytes = 1 << 22
	cfg.LifetimeScale = 10
	cfg.StandingFlows = 1000
	cfg.Seed = 11
	schedule := trace.Flows(cfg)

	c := buildChain(20e6, 64*1500) // narrow core: drops guaranteed
	src := NewSource(c.src, schedule, Config{To: c.dst.ID, ClosedLoop: closed})
	sink := NewSink(c.dst, SinkConfig{ClosedLoop: closed})
	c.eng.RunUntil(sim.Time(300e6))
	return src.Stats, sink.Stats, c.bottleneck.Stats()
}

func TestReplayDeterministic(t *testing.T) {
	for _, closed := range []bool{false, true} {
		a1, k1, d1 := runScheduleFromTrace(t, closed)
		a2, k2, d2 := runScheduleFromTrace(t, closed)
		if a1 != a2 || k1 != k2 || d1 != d2 {
			t.Fatalf("closed=%v: replay non-deterministic:\n%+v\n%+v", closed, a1, a2)
		}
	}
}

func TestClosedLoopReactsToCongestion(t *testing.T) {
	_, _, openDev := runScheduleFromTrace(t, false)
	srcStats, sinkStats, closedDev := runScheduleFromTrace(t, true)

	if openDev.DropPackets == 0 {
		t.Fatal("test needs a congested bottleneck but the open-loop run saw no drops")
	}
	if sinkStats.LostBytes == 0 {
		t.Fatal("closed-loop sink observed no sequence holes despite drops")
	}
	if sinkStats.Feedbacks == 0 || srcStats.Feedbacks == 0 {
		t.Fatalf("no feedback flowed: sink sent %d, source accepted %d", sinkStats.Feedbacks, srcStats.Feedbacks)
	}
	if srcStats.RateCuts == 0 {
		t.Fatal("feedback arrived but no pacing gaps were cut")
	}
	// Backing off must shrink the drop rate relative to blind replay.
	openRate := float64(openDev.DropPackets) / float64(openDev.DropPackets+openDev.TxPackets)
	closedRate := float64(closedDev.DropPackets) / float64(closedDev.DropPackets+closedDev.TxPackets)
	if closedRate >= openRate {
		t.Fatalf("closed loop did not reduce drops: open %.4f vs closed %.4f", openRate, closedRate)
	}
}

func TestArenaRecyclesSlots(t *testing.T) {
	c := buildChain(1e9, 1<<22)
	// Many sequential short flows: each finishes before the next starts,
	// so the arena should stay at one chunk no matter how many flows run.
	var schedule []trace.FlowSpec
	for i := 0; i < 4*chunkSize; i++ {
		schedule = append(schedule, spec(uint32(i+1), sim.Time(i)*sim.Time(100e3), 1400, sim.Time(10e3)))
	}
	src := NewSource(c.src, schedule, Config{To: c.dst.ID})
	NewSink(c.dst, SinkConfig{})
	c.eng.RunUntil(sim.Time(1e9))
	if !src.Done() {
		t.Fatalf("source not done: %+v", src.Stats)
	}
	if src.Stats.PeakActive > 4 {
		t.Fatalf("sequential flows overlapped: peak active %d", src.Stats.PeakActive)
	}
	if src.ResidentChunks() != 1 {
		t.Fatalf("arena grew to %d chunks for a peak of %d active flows", src.ResidentChunks(), src.Stats.PeakActive)
	}
}

// TestFlowRecordSize pins what a live flow costs the arena: a record is
// two cache lines, its timer 80 B of them, and a chunk of records 64 KiB.
func TestFlowRecordSize(t *testing.T) {
	if n := unsafe.Sizeof(flowState{}); n != 128 {
		t.Fatalf("sizeof(flowState) = %d, want 128", n)
	}
	if n := unsafe.Sizeof(chunk{}); n != 64<<10 {
		t.Fatalf("sizeof(chunk) = %d, want %d", n, 64<<10)
	}
}

func TestStartBurstAdmitsAllDueFlows(t *testing.T) {
	c := buildChain(1e9, 1<<22)
	// All flows due at the same instant (a standing population).
	var schedule []trace.FlowSpec
	for i := 0; i < 100; i++ {
		schedule = append(schedule, spec(uint32(i+1), 0, 10_000, sim.Time(50e6)))
	}
	src := NewSource(c.src, schedule, Config{To: c.dst.ID})
	NewSink(c.dst, SinkConfig{})
	c.eng.RunUntil(1)
	if src.Stats.Started != 100 {
		t.Fatalf("standing flows admitted lazily: %d of 100 started at t=0", src.Stats.Started)
	}
	if src.Stats.PeakActive != 100 {
		t.Fatalf("peak active %d, want 100", src.Stats.PeakActive)
	}
}

func TestSendSteadyStateZeroAlloc(t *testing.T) {
	c := buildChain(1e9, 1<<22)
	// One long flow paced at ~70 µs/packet for the whole measurement.
	schedule := []trace.FlowSpec{spec(1, 0, 200e6, sim.Time(20e9))}
	src := NewSource(c.src, schedule, Config{To: c.dst.ID})
	NewSink(c.dst, SinkConfig{})
	// Warm up: grow the event heap, the packet pool, and the arena.
	c.eng.RunUntil(sim.Time(50e6))
	var horizon = sim.Time(50e6)
	allocs := testing.AllocsPerRun(100, func() {
		horizon += sim.Time(1e6)
		c.eng.RunUntil(horizon)
	})
	if allocs != 0 {
		t.Fatalf("steady-state send path allocates: %v allocs per 1 ms window", allocs)
	}
	if src.Stats.SentPackets == 0 {
		t.Fatal("no packets sent during measurement")
	}
}

// TestRTTSpreadJitter checks the per-flow pacing jitter: identically
// scheduled flows get distinct gaps scattered within the configured
// spread, as a pure function of each flow's record (two runs agree
// exactly), while a zero spread keeps the uniform schedule pacing.
func TestRTTSpreadJitter(t *testing.T) {
	const n = 64
	gather := func(spread float64) []sim.Time {
		c := buildChain(1e9, 1<<22)
		var schedule []trace.FlowSpec
		for i := 0; i < n; i++ {
			schedule = append(schedule, spec(uint32(i+1), 0, 10_000, sim.Time(50e6)))
		}
		src := NewSource(c.src, schedule, Config{To: c.dst.ID, RTTSpread: spread})
		NewSink(c.dst, SinkConfig{})
		c.eng.RunUntil(1)
		gaps := make([]sim.Time, n)
		for i := range gaps {
			gaps[i] = src.at(int32(i)).baseGap
		}
		return gaps
	}

	uniform := gather(0)
	for _, g := range uniform {
		if g != uniform[0] {
			t.Fatalf("zero spread produced non-uniform gaps: %v", uniform)
		}
	}
	base := float64(uniform[0])

	jittered := gather(0.3)
	distinct := map[sim.Time]bool{}
	for i, g := range jittered {
		if f := float64(g) / base; f < 0.7 || f > 1.3 {
			t.Fatalf("flow %d gap %v is %.3f× the schedule gap, outside ±30%%", i, g, f)
		}
		distinct[g] = true
	}
	if len(distinct) < n/4 {
		t.Fatalf("jitter barely scattered the population: %d distinct gaps over %d flows", len(distinct), n)
	}
	if again := gather(0.3); !slicesEqual(jittered, again) {
		t.Fatalf("jitter not deterministic:\n%v\n%v", jittered, again)
	}
}

func slicesEqual(a, b []sim.Time) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestConfigPanics(t *testing.T) {
	c := buildChain(1e9, 1<<22)
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		f()
	}
	expectPanic("missing To", func() { NewSource(c.src, nil, Config{}) })
	expectPanic("tiny packets", func() { NewSource(c.src, nil, Config{To: c.dst.ID, PacketBytes: 10}) })
	expectPanic("unsorted schedule", func() {
		NewSource(c.src, []trace.FlowSpec{spec(1, 100, 1000, 10), spec(2, 50, 1000, 10)}, Config{To: c.dst.ID})
	})
	expectPanic("spread ≥ 1", func() { NewSource(c.src, nil, Config{To: c.dst.ID, RTTSpread: 1}) })
	expectPanic("negative spread", func() { NewSource(c.src, nil, Config{To: c.dst.ID, RTTSpread: -0.1}) })
}

// TestClosedLoopSinkRefusesUntagged: a closed-loop sink keeps per-flow
// state by FlowID, so a packet no Source tagged must fail loudly, naming
// its flow, rather than share entry 0 with every other untagged flow. An
// open-loop sink keeps no per-flow state and takes it.
func TestClosedLoopSinkRefusesUntagged(t *testing.T) {
	untagged := func(c *chain) *packet.Packet {
		key := packet.FlowKey{Src: c.src.ID, Dst: c.dst.ID, SrcPort: 7, DstPort: 9, Proto: packet.ProtoTCP}
		return &packet.Packet{Flow: key, Size: 700, PayloadSize: 700 - packet.HeaderBytes}
	}
	open := buildChain(1e9, 1<<22)
	NewSink(open.dst, SinkConfig{}).Deliver(untagged(open))

	closed := buildChain(1e9, 1<<22)
	sink := NewSink(closed.dst, SinkConfig{ClosedLoop: true})
	p := untagged(closed)
	defer func() {
		r := recover()
		msg, _ := r.(string)
		if r == nil || !strings.Contains(msg, p.Flow.String()) {
			t.Fatalf("untagged packet: recovered %v, want a panic naming %v", r, p.Flow)
		}
	}()
	sink.Deliver(p)
}
