package shard

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"cebinae/internal/netem"
	"cebinae/internal/packet"
	"cebinae/internal/qdisc"
	"cebinae/internal/sim"
)

// drainArrivals empties q through the production drainInto path and
// returns the records' arrival times in drain order.
func drainArrivals(q *spsc) []sim.Time {
	var pend []pendingArrival
	q.drainInto(&pend, 0)
	out := make([]sim.Time, len(pend))
	for i := range pend {
		out[i] = pend[i].rec.arrival
	}
	return out
}

// TestSPSCFIFOAndOverflow pushes well past the ring capacity and checks
// that drain returns every record in push order — the overflow spill must
// not reorder relative to the ring — and that the queue is empty and
// reusable afterwards.
func TestSPSCFIFOAndOverflow(t *testing.T) {
	var q spsc
	const n = ringSize*3 + 17
	for i := 0; i < n; i++ {
		var r record
		r.arrival = sim.Time(i)
		q.push(&r)
	}
	got := drainArrivals(&q)
	if len(got) != n {
		t.Fatalf("drained %d records, pushed %d", len(got), n)
	}
	for i, v := range got {
		if v != sim.Time(i) {
			t.Fatalf("record %d has arrival %d, want %d (FIFO violated)", i, v, i)
		}
	}
	if rest := drainArrivals(&q); len(rest) != 0 {
		t.Fatalf("drain of empty queue yielded %v", rest)
	}
	if !q.empty() {
		t.Fatal("queue not empty after full drain")
	}

	// Wraparound: the ring indices are now past ringSize; a second batch
	// must still come out in order.
	for i := 0; i < 5; i++ {
		var r record
		r.arrival = sim.Time(100 + i)
		q.push(&r)
	}
	if q.peekArrival() != 100 {
		t.Fatalf("peekArrival %d, want 100", q.peekArrival())
	}
	got = drainArrivals(&q)
	if len(got) != 5 || got[0] != 100 || got[4] != 104 {
		t.Fatalf("post-drain reuse broken: %v", got)
	}
}

// TestSPSCBarrierHandoff drives the queue under its real concurrency
// contract — producer pushes during a window, consumer drains only after
// a happens-before edge (a channel send standing in for the barrier) —
// across enough rounds to exercise ring wraparound and overflow spill.
// `make race` runs this under the race detector.
func TestSPSCBarrierHandoff(t *testing.T) {
	var q spsc
	rounds := []int{1, ringSize - 1, ringSize, ringSize + 7, 3, ringSize * 2}
	barrier := make(chan int)
	ack := make(chan struct{})
	go func() {
		next := sim.Time(0)
		for _, n := range rounds {
			for i := 0; i < n; i++ {
				var r record
				r.arrival = next
				next++
				q.push(&r)
			}
			// The two channel operations are the barrier: the producer stays
			// quiescent until the consumer's drain has completed, exactly as
			// shard workers do between windows.
			barrier <- n
			<-ack
		}
		close(barrier)
	}()
	want := sim.Time(0)
	var pend []pendingArrival
	for n := range barrier {
		pend = pend[:0]
		q.drainInto(&pend, 0)
		for i := range pend {
			if pend[i].rec.arrival != want {
				t.Fatalf("arrival %d, want %d", pend[i].rec.arrival, want)
			}
			want++
		}
		if len(pend) != n {
			t.Fatalf("round drained %d records, want %d", len(pend), n)
		}
		ack <- struct{}{}
	}
}

// TestRecordCaptureRestoreSACK round-trips a packet with 0, 1 and 3 SACK
// blocks through a handoff record: the destination packet comes from the
// destination pool and carries equal blocks in an array drawn from that
// pool (only when there are blocks to carry), never the source's. Once
// the destination pool holds a free array and packet, a restore
// allocates nothing.
func TestRecordCaptureRestoreSACK(t *testing.T) {
	for _, nblocks := range []int{0, 1, packet.MaxSack} {
		src := &packet.Packet{Size: 1500, PayloadSize: 1448, SACK: new([packet.MaxSack]packet.SackBlock), NSack: uint8(nblocks)}
		for i := 0; i < nblocks; i++ {
			src.SACK[i] = packet.SackBlock{Start: int64(10 * i), End: int64(10*i + 5)}
		}
		var r record
		r.capture(src, 40, 42)
		*src.SACK = [packet.MaxSack]packet.SackBlock{} // scribble: the record must not alias
		var pool packet.Pool
		held := new([packet.MaxSack]packet.SackBlock)
		pool.Put(&packet.Packet{SACK: held})
		dst := r.restore(&pool)
		if r.sent != 40 || r.arrival != 42 || dst.Size != 1500 || dst.PayloadSize != 1448 {
			t.Fatalf("nblocks=%d: restored packet %+v, sent %d, arrival %d", nblocks, dst, r.sent, r.arrival)
		}
		if int(dst.NSack) != nblocks {
			t.Fatalf("nblocks=%d: restored %d SACK blocks", nblocks, dst.NSack)
		}
		if pool.Gets != 1 || pool.Reuses != 1 {
			t.Fatalf("nblocks=%d: restore drew %d packets (%d reused) from the destination pool, want 1 reused", nblocks, pool.Gets, pool.Reuses)
		}
		switch {
		case dst.SACK == src.SACK:
			t.Fatalf("nblocks=%d: restored packet shares the source's SACK array", nblocks)
		case nblocks > 0 && dst.SACK != held:
			t.Fatalf("nblocks=%d: restored array is not the destination pool's free one", nblocks)
		case nblocks == 0 && (dst.SACK != nil || pool.SackGets != 0):
			t.Fatalf("nblocks=%d: restore drew a SACK array for no blocks", nblocks)
		}
		for i := 0; i < nblocks; i++ {
			if b := dst.SACK[i]; b.Start != int64(10*i) || b.End != int64(10*i+5) {
				t.Fatalf("nblocks=%d: block %d = %+v after source scribble", nblocks, i, b)
			}
		}
		pool.Put(dst)
		if allocs := testing.AllocsPerRun(100, func() { pool.Put(r.restore(&pool)) }); allocs != 0 {
			t.Fatalf("nblocks=%d: a restore from a pool holding a free packet and array allocates %.1f objects, want 0", nblocks, allocs)
		}
	}
}

// countEndpoint records delivery times as observed by the destination
// engine's clock.
type countEndpoint struct {
	eng   *sim.Engine
	times []sim.Time
}

func (e *countEndpoint) Deliver(p *packet.Packet) { e.times = append(e.times, e.eng.Now()) }

// crossTopo is one a→b hop built either on a plain Network (fabric with
// one shard) or a 2-shard cluster (the link becomes a cut link).
func crossTopo(f netem.Fabric) (a *netem.Node, sink *countEndpoint) {
	a = f.NodeOn(0, "a")
	b := f.NodeOn(f.Shards()-1, "b")
	da, db := f.Connect(a, b, netem.LinkConfig{RateBps: 1e9, Delay: sim.Time(1e6)})
	da.SetQdisc(qdisc.NewFIFO(1 << 20))
	db.SetQdisc(qdisc.NewFIFO(1 << 20))
	a.AddRoute(b.ID, da)
	sink = &countEndpoint{eng: b.Engine()}
	b.Register(packet.FlowKey{Src: a.ID, Dst: b.ID, SrcPort: 1, DstPort: 2, Proto: packet.ProtoTCP}, sink)
	return a, sink
}

func injectAt(a *netem.Node, at sim.Time) {
	a.Engine().ScheduleCall(at, sim.Func(func() {
		p := a.AllocPacket()
		p.Flow = packet.FlowKey{Src: a.ID, Dst: a.ID + 1, SrcPort: 1, DstPort: 2, Proto: packet.ProtoTCP}
		p.Size = 1500
		p.PayloadSize = 1448
		a.Inject(p)
	}), nil)
}

// TestCrossShardDeliveryMatchesSingleEngine sends packets across a cut
// link at times straddling several 1 ms windows and requires the
// destination to observe exactly the delivery instants and event count of
// the identical single-network run.
func TestCrossShardDeliveryMatchesSingleEngine(t *testing.T) {
	sends := []sim.Time{0, 5e5, 17e5, 32e5, 32e5 + 1}
	until := sim.Time(1e7)

	eng := sim.NewEngine()
	w := netem.NewNetwork(eng)
	refA, refSink := crossTopo(w)
	for _, at := range sends {
		injectAt(refA, at)
	}
	eng.RunUntil(until)

	cl := NewCluster(2)
	a, sink := crossTopo(cl)
	for _, at := range sends {
		injectAt(a, at)
	}
	cl.Run(until)

	if len(sink.times) != len(sends) {
		t.Fatalf("cluster delivered %d packets, want %d", len(sink.times), len(sends))
	}
	for i := range refSink.times {
		if sink.times[i] != refSink.times[i] {
			t.Errorf("packet %d delivered at %d, single-engine at %d", i, sink.times[i], refSink.times[i])
		}
	}
	if cl.Processed() != eng.Processed {
		t.Errorf("cluster processed %d events, single engine %d", cl.Processed(), eng.Processed)
	}
	for _, s := range cl.shards {
		if now := s.Engine.Now(); now != until {
			t.Errorf("shard settled at %d, want %d", now, until)
		}
	}
}

// TestCrossShardOverflowWindowMatchesSingleEngine blasts several times
// the handoff ring's capacity across a cut link inside a single
// conservative window, forcing the overflow spill on the live concurrent
// path (not just the unit-level queue test). Delivery instants, counts,
// and the event total must still match the single-engine run exactly;
// `make race` runs this under the race detector, which would flag any
// push/drain overlap on the unsynchronised queue.
func TestCrossShardOverflowWindowMatchesSingleEngine(t *testing.T) {
	const n = ringSize*2 + 50
	until := sim.Time(1e7)
	// 100 Gbps serialises a 1500 B packet in 120 ns, so all n transmit
	// completions (and handoffs) land inside the first 1 ms window.
	build := func(f netem.Fabric) (*netem.Node, *countEndpoint) {
		a := f.NodeOn(0, "a")
		b := f.NodeOn(f.Shards()-1, "b")
		da, db := f.Connect(a, b, netem.LinkConfig{RateBps: 1e11, Delay: sim.Time(1e6)})
		da.SetQdisc(qdisc.NewFIFO(64 << 20))
		db.SetQdisc(qdisc.NewFIFO(64 << 20))
		a.AddRoute(b.ID, da)
		sink := &countEndpoint{eng: b.Engine()}
		b.Register(packet.FlowKey{Src: a.ID, Dst: b.ID, SrcPort: 1, DstPort: 2, Proto: packet.ProtoTCP}, sink)
		return a, sink
	}

	eng := sim.NewEngine()
	refA, refSink := build(netem.NewNetwork(eng))
	for i := 0; i < n; i++ {
		injectAt(refA, sim.Time(i))
	}
	eng.RunUntil(until)

	cl := NewCluster(2)
	a, sink := build(cl)
	for i := 0; i < n; i++ {
		injectAt(a, sim.Time(i))
	}
	cl.Run(until)

	if len(refSink.times) != n {
		t.Fatalf("single engine delivered %d packets, want %d", len(refSink.times), n)
	}
	if len(sink.times) != n {
		t.Fatalf("cluster delivered %d packets, want %d (overflow lost or duplicated records)", len(sink.times), n)
	}
	for i := range refSink.times {
		if sink.times[i] != refSink.times[i] {
			t.Fatalf("packet %d delivered at %d, single-engine at %d", i, sink.times[i], refSink.times[i])
		}
	}
	if cl.Processed() != eng.Processed {
		t.Errorf("cluster processed %d events, single engine %d", cl.Processed(), eng.Processed)
	}
}

// TestRunResumesAndNeverRewinds: a second Run call with a later horizon
// continues the window schedule (matching one uninterrupted single-engine
// run), and a stale horizon is a no-op rather than rewinding shard
// clocks.
func TestRunResumesAndNeverRewinds(t *testing.T) {
	sends := []sim.Time{0, 5e5, 17e5, 32e5, 48e5 + 3}
	mid, until := sim.Time(41e5), sim.Time(1e7)

	eng := sim.NewEngine()
	refA, refSink := crossTopo(netem.NewNetwork(eng))
	for _, at := range sends {
		injectAt(refA, at)
	}
	eng.RunUntil(until)

	cl := NewCluster(2)
	a, sink := crossTopo(cl)
	for _, at := range sends {
		injectAt(a, at)
	}
	cl.Run(mid)
	cl.Run(until)
	cl.Run(mid) // stale horizon: must not move anything backward
	for i, s := range cl.shards {
		if now := s.Engine.Now(); now != until {
			t.Errorf("shard %d clock at %d after stale Run, want %d", i, now, until)
		}
	}

	if len(sink.times) != len(sends) {
		t.Fatalf("resumed cluster delivered %d packets, want %d", len(sink.times), len(sends))
	}
	for i := range refSink.times {
		if sink.times[i] != refSink.times[i] {
			t.Errorf("packet %d delivered at %d, single-engine at %d", i, sink.times[i], refSink.times[i])
		}
	}
	if cl.Processed() != eng.Processed {
		t.Errorf("resumed cluster processed %d events, single engine %d", cl.Processed(), eng.Processed)
	}
}

// TestAdaptiveWindowsSkipQuiescence: with traffic that dies out early in a
// long run, adaptive lookahead must (a) deliver the exact instants and
// event count of the fixed-window run — widening is an optimisation, never
// a semantics change — and (b) run materially fewer barriers than the
// fixed schedule, with the savings visible in Stats.Widened.
func TestAdaptiveWindowsSkipQuiescence(t *testing.T) {
	sends := []sim.Time{0, 5e5, 17e5, 32e5, 32e5 + 1}
	until := sim.Time(1e8) // 100 fixed windows at the 1 ms cut delay

	fixed := NewCluster(2)
	fixed.SetAdaptive(false)
	fa, fsink := crossTopo(fixed)
	for _, at := range sends {
		injectAt(fa, at)
	}
	fixed.Run(until)
	if fixed.Stats.Windows != 100 {
		t.Fatalf("fixed run took %d windows, want 100", fixed.Stats.Windows)
	}
	if fixed.Stats.Widened != 0 {
		t.Fatalf("fixed run widened %d windows", fixed.Stats.Widened)
	}

	ad := NewCluster(2)
	// A deterministic fake clock (the shard package may not read the wall
	// clock itself): each phase samples it at the first and last worker
	// join, so every window adds a positive stall reading.
	var ticks int64
	ad.Instrument(func() int64 { ticks++; return ticks })
	aa, asink := crossTopo(ad)
	for _, at := range sends {
		injectAt(aa, at)
	}
	ad.Run(until)
	if ticks == 0 || ad.Stats.BarrierStallNs <= 0 {
		t.Errorf("instrumented clock saw %d samples, stall %d ns — barrier timing not recorded", ticks, ad.Stats.BarrierStallNs)
	}

	if len(asink.times) != len(fsink.times) {
		t.Fatalf("adaptive delivered %d packets, fixed %d", len(asink.times), len(fsink.times))
	}
	for i := range fsink.times {
		if asink.times[i] != fsink.times[i] {
			t.Errorf("packet %d delivered at %d adaptive, %d fixed", i, asink.times[i], fsink.times[i])
		}
	}
	if ad.Processed() != fixed.Processed() {
		t.Errorf("adaptive processed %d events, fixed %d", ad.Processed(), fixed.Processed())
	}
	for i, s := range ad.shards {
		if now := s.Engine.Now(); now != until {
			t.Errorf("adaptive shard %d settled at %d, want %d", i, now, until)
		}
	}
	// Traffic is dead after ~5 ms of the 100 ms horizon; the adaptive run
	// should cross the remaining quiescence in a handful of wide windows.
	if ad.Stats.Windows >= fixed.Stats.Windows/2 {
		t.Errorf("adaptive run took %d windows vs %d fixed — widening is not engaging", ad.Stats.Windows, fixed.Stats.Windows)
	}
	if ad.Stats.Widened == 0 {
		t.Error("adaptive run reports zero widened windows")
	}
	t.Logf("windows: fixed %d, adaptive %d (%d widened)", fixed.Stats.Windows, ad.Stats.Windows, ad.Stats.Widened)
}

// batchSender injects `batch` packets every `every` nanoseconds via the
// pooled typed-event path, so the traffic source itself is allocation-free
// at steady state and any measured growth belongs to the shard runtime.
type batchSender struct {
	src   *netem.Node
	key   packet.FlowKey
	batch int
	every sim.Time
}

func (s *batchSender) OnEvent(any) {
	for i := 0; i < s.batch; i++ {
		p := s.src.AllocPacket()
		p.Flow = s.key
		p.Size = 1500
		p.PayloadSize = 1448
		s.src.Inject(p)
	}
	s.src.Engine().ScheduleCall(s.every, s, nil)
}

// quietEndpoint counts deliveries without recording them, so the sink
// cannot contribute slice growth to the allocation measurement.
type quietEndpoint struct{ n int }

func (e *quietEndpoint) Deliver(p *packet.Packet) { e.n++ }

// TestWindowSteadyStateAllocs pins the conservative runner's per-window
// cost: once scratch buffers have grown, barriers, inbound drains, and
// handoffs — including spills past the SPSC ring into the pooled overflow
// slice — must not allocate. Each burst overflows the ring (ringSize+200
// packets inside one window at 100 Gbps), so the overflow slice and the
// per-window drain scratch are both on the measured path; the regression
// this guards is per-window churn, where allocs/op scales with
// windows × shards instead of staying O(shards) setup.
func TestWindowSteadyStateAllocs(t *testing.T) {
	cl := NewCluster(2)
	cl.SetAdaptive(false)
	a := cl.NodeOn(0, "a")
	c := cl.NodeOn(1, "c")
	// 100 Gbps serialises each burst in ~134 µs, inside one 1 ms window.
	da, db := cl.Connect(a, c, netem.LinkConfig{RateBps: 1e11, Delay: sim.Time(1e6)})
	da.SetQdisc(qdisc.NewFIFO(64 << 20))
	db.SetQdisc(qdisc.NewFIFO(64 << 20))
	a.AddRoute(c.ID, da)
	key := packet.FlowKey{Src: a.ID, Dst: c.ID, SrcPort: 1, DstPort: 2, Proto: packet.ProtoTCP}
	sink := &quietEndpoint{}
	c.Register(key, sink)
	s := &batchSender{src: a, key: key, batch: ringSize + 200, every: sim.Time(2e6)}
	a.Engine().ScheduleCall(1, s, nil)

	// Warmup: grow the packet pools, drain scratch, and overflow spill to
	// their standing sizes.
	cl.Run(sim.Time(20e6))

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	w0 := cl.Stats.Windows
	cl.Run(sim.Time(220e6))
	runtime.ReadMemStats(&m1)

	windows := cl.Stats.Windows - w0
	if windows < 100 {
		t.Fatalf("measured only %d windows, want ≥ 100", windows)
	}
	allocs := m1.Mallocs - m0.Mallocs
	t.Logf("%d allocations over %d windows (%.3f/window)", allocs, windows, float64(allocs)/float64(windows))
	// Budget: the Run call itself spawns one goroutine and channel per
	// shard, and the runtime makes a handful of incidental allocations;
	// anything proportional to windows is a leak.
	if limit := windows/10 + 64; allocs > limit {
		t.Fatalf("%d allocations over %d steady-state windows (%.2f/window) — per-window scratch is not being reused",
			allocs, windows, float64(allocs)/float64(windows))
	}
	if sink.n == 0 {
		t.Fatal("sink saw no traffic; the measurement ran idle")
	}
}

// TestLookahead pins the window width to the minimum cut-link delay, and
// MaxTime when nothing is cut.
func TestLookahead(t *testing.T) {
	cl := NewCluster(3)
	if w := cl.Lookahead(); w != sim.MaxTime {
		t.Fatalf("empty cluster lookahead %d, want MaxTime", w)
	}
	a := cl.NodeOn(0, "a")
	b := cl.NodeOn(1, "b")
	c := cl.NodeOn(2, "c")
	cl.Connect(a, b, netem.LinkConfig{RateBps: 1e9, Delay: sim.Time(5e6)})
	cl.Connect(b, c, netem.LinkConfig{RateBps: 1e9, Delay: sim.Time(3e6)})
	if w := cl.Lookahead(); w != sim.Time(3e6) {
		t.Fatalf("lookahead %d, want 3e6 (minimum over cut links)", w)
	}
	// Same-shard links don't constrain the window.
	d := cl.NodeOn(0, "d")
	cl.Connect(a, d, netem.LinkConfig{RateBps: 1e9, Delay: 1})
	if w := cl.Lookahead(); w != sim.Time(3e6) {
		t.Fatalf("lookahead %d after local link, want 3e6", w)
	}
}

// TestZeroDelayCutPanics: a zero-delay cut link would collapse the
// conservative window to nothing, so Connect must refuse it loudly.
func TestZeroDelayCutPanics(t *testing.T) {
	cl := NewCluster(2)
	a := cl.NodeOn(0, "a")
	b := cl.NodeOn(1, "b")
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("zero-delay cut link accepted")
		}
		if !strings.Contains(fmt.Sprint(r), "positive propagation delay") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	cl.Connect(a, b, netem.LinkConfig{RateBps: 1e9})
}

// TestWorkerPanicReraisedOnCaller: a panic inside a shard's window must
// surface on the goroutine that called Run — that is where the fleet
// orchestrator's per-job recovery lives — after the barrier joins.
func TestWorkerPanicReraisedOnCaller(t *testing.T) {
	cl := NewCluster(2)
	a, _ := crossTopo(cl)
	_ = a
	cl.Shard(1).Engine.ScheduleCall(sim.Time(25e5), sim.Func(func() { panic("boom") }), nil)
	defer func() {
		if r := recover(); fmt.Sprint(r) != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	cl.Run(sim.Time(1e7))
	t.Fatal("Run returned despite shard panic")
}

// TestNodeOnClampsAndNumbersGlobally: shard hints outside the valid range
// clamp instead of crashing a builder, and node IDs are one global
// sequence in call order regardless of placement.
func TestNodeOnClampsAndNumbersGlobally(t *testing.T) {
	cl := NewCluster(2)
	n1 := cl.NodeOn(-3, "n1")
	n2 := cl.NodeOn(99, "n2")
	n3 := cl.NodeOn(1, "n3")
	if n1.Network() != cl.Shard(0).Net {
		t.Error("negative shard hint not clamped to shard 0")
	}
	if n2.Network() != cl.Shard(1).Net {
		t.Error("oversized shard hint not clamped to the last shard")
	}
	for i, n := range []*netem.Node{n1, n2, n3} {
		if n.ID != packet.NodeID(i+1) {
			t.Errorf("node %d has ID %d, want %d (global sequence)", i, n.ID, i+1)
		}
	}
}
