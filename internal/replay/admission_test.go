package replay

import (
	"math/bits"
	"runtime"
	"testing"

	"cebinae/internal/packet"
	"cebinae/internal/sim"
	"cebinae/internal/trace"
)

// admissionSchedule is two admission bursts — admissionBurst flows at
// t = 0, a quarter of that at 2 ms — with one flow in five a single
// packet (it finishes inside its own burst) and the rest spread over
// tens of milliseconds.
const admissionBurst = 3000

func admissionSchedule() []trace.FlowSpec {
	var schedule []trace.FlowSpec
	add := func(at sim.Time, n int) {
		for i := 0; i < n; i++ {
			id := uint32(len(schedule) + 1)
			bytes := int64(2000 + 97*(i%500))
			if i%5 == 0 {
				bytes = 400
			}
			schedule = append(schedule, spec(id, at, bytes, sim.Time(10e6+int64(i%7)*3e6)))
		}
	}
	add(0, admissionBurst)
	add(sim.Time(2e6), admissionBurst/4)
	return schedule
}

// admissionRun replays admissionSchedule closed-loop, with RTT spread,
// through a core narrow enough to drop. It returns the engine's pending
// count just after the t = 0 admission (a probe scheduled after
// NewSource fires between the admission and the first sends), a digest
// of every packet leaving the source — (time, FlowID, Seq) in transmit
// order — their number, the events dispatched by 60 ms and the source's
// counters.
func admissionRun() (pending int, digest uint64, pkts int, processed uint64, stats SourceStats) {
	c := buildChain(200e6, 64*1500)
	src := NewSource(c.src, admissionSchedule(), Config{To: c.dst.ID, ClosedLoop: true, RTTSpread: 0.2})
	NewSink(c.dst, SinkConfig{ClosedLoop: true})
	c.eng.ScheduleCall(0, sim.Func(func() { pending = c.eng.Pending() }), nil)
	digest = 14695981039346656037 // FNV-1a 64
	c.uplink.OnTransmit = func(p *packet.Packet) {
		for _, v := range [...]uint64{uint64(c.eng.Now()), uint64(p.FlowID), uint64(p.Seq)} {
			digest = (digest ^ v) * 1099511628211
		}
		pkts++
	}
	c.eng.RunUntil(sim.Time(60e6))
	return pending, digest, pkts, c.eng.Processed, src.Stats
}

// TestAdmissionBurstExact pins what a burst of first sends costs and that
// it changes nothing else: right after admitting admissionBurst flows at
// one instant the engine holds a constant number of events, not one per
// flow, while the packets leaving the source — their order, times and
// sequence numbers — and the events dispatched equal the goldens recorded
// when every first send was its own delay-0 timer.
func TestAdmissionBurstExact(t *testing.T) {
	pending, digest, pkts, processed, stats := admissionRun()
	if stats.RateCuts == 0 || stats.Finished == 0 {
		t.Fatalf("closed loop idle or no flow finished: %+v", stats)
	}
	if pending > 8 {
		t.Errorf("%d events pending right after admitting %d flows, want O(1)", pending, admissionBurst)
	}
	const (
		wantDigest    = 0x12772b153de5bc1c
		wantPkts      = 51279
		wantProcessed = 220475
	)
	if digest != wantDigest || pkts != wantPkts || processed != wantProcessed {
		t.Errorf("source emitted %d packets (digest %#x) over %d events, want %d (%#x) over %d",
			pkts, digest, processed, wantPkts, uint64(wantDigest), wantProcessed)
	}
}

// TestSinkGrowsByDoubling: a closed-loop sink's per-flow table grows to
// the largest FlowID seen by doubling, so FlowIDs 1..N cost about log₂ N
// allocations, not one per append-growth step.
func TestSinkGrowsByDoubling(t *testing.T) {
	const n = 1 << 17
	c := buildChain(1e9, 1<<22)
	k := NewSink(c.dst, SinkConfig{ClosedLoop: true})
	p := &packet.Packet{Size: 700, PayloadSize: 700 - packet.HeaderBytes}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for id := 1; id <= n; id++ {
		p.FlowID = uint32(id)
		k.Deliver(p)
	}
	runtime.ReadMemStats(&m1)
	if allocs, limit := m1.Mallocs-m0.Mallocs, uint64(bits.Len(n)+2); allocs > limit {
		t.Fatalf("sink allocated %d times for FlowIDs 1..%d, want at most %d", allocs, n, limit)
	}
	if k.Stats.Packets != n {
		t.Fatalf("sink counted %d packets, want %d", k.Stats.Packets, n)
	}
}
