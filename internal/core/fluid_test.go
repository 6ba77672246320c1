package core_test

import (
	"testing"

	"cebinae/internal/core"
	"cebinae/internal/packet"
	"cebinae/internal/sim"
)

func fluidKey(port uint16) packet.FlowKey {
	return packet.FlowKey{Src: 1, Dst: 2, SrcPort: port, DstPort: 80, Proto: packet.ProtoTCP}
}

// TestFluidAdvanceCreditsCounters: a fluid-advanced stretch must land in
// exactly the counters Enqueue+Dequeue would have fed — port TX, stats,
// and the heavy-hitter observations — and non-positive shares must be
// ignored entirely (a flow that moved nothing contributes neither bytes
// nor packets).
func TestFluidAdvanceCreditsCounters(t *testing.T) {
	eng := sim.NewEngine()
	q := core.New(eng, 100e6, 375000, core.DefaultParams(100e6, 375000, sim.Duration(40e6)))
	q.FluidAdvance([]core.FlowBytes{
		{Flow: fluidKey(1), Bytes: 1_500_000, Packets: 1000},
		{Flow: fluidKey(2), Bytes: 0, Packets: 7},
		{Flow: fluidKey(2), Bytes: -3, Packets: 9},
		{Flow: fluidKey(3), Bytes: 750_000, Packets: 500},
	})
	st := q.Stats
	if st.TxBytes != 2_250_000 || st.TxPackets != 1500 || st.Enqueued != 1500 {
		t.Fatalf("credited stats = tx %d B / %d pkts, enq %d; want 2250000 / 1500 / 1500",
			st.TxBytes, st.TxPackets, st.Enqueued)
	}
	// A second stretch accumulates rather than overwrites.
	q.FluidAdvance([]core.FlowBytes{{Flow: fluidKey(1), Bytes: 1500, Packets: 1}})
	if q.Stats.TxBytes != 2_251_500 || q.Stats.TxPackets != 1501 {
		t.Fatalf("second advance did not accumulate: %+v", q.Stats)
	}
	if len(q.TopFlows()) != 0 {
		t.Fatalf("fluid credit alone must not invent a ⊤ set: %v", q.TopFlows())
	}
}

// TestFrozenQueueDrainsAfterSkip: packets buffered across a fast-forward
// skip need nothing done to them — after the engine jumps, every packet
// still dequeues, in order, with byte gauges consistent.
func TestFrozenQueueDrainsAfterSkip(t *testing.T) {
	eng := sim.NewEngine()
	q := core.New(eng, 100e6, 375000, core.DefaultParams(100e6, 375000, sim.Duration(40e6)))
	const n = 8
	for i := 0; i < n; i++ {
		p := &packet.Packet{Flow: fluidKey(uint16(i % 2)), Seq: int64(i), Size: 1500, PayloadSize: 1448}
		if !q.Enqueue(p) {
			t.Fatalf("enqueue %d refused with an empty buffer", i)
		}
	}
	if q.BytesQueued() != n*1500 {
		t.Fatalf("BytesQueued = %d, want %d", q.BytesQueued(), n*1500)
	}
	// Less than one rotation period, so no pinned deadline is crossed.
	eng.FastForward(q.Params().DT / 2)
	got := 0
	for p := q.Dequeue(); p != nil; p = q.Dequeue() {
		if p.Seq != int64(got) {
			t.Fatalf("dequeue %d returned packet %d", got, p.Seq)
		}
		got++
	}
	if got != n || q.Len() != 0 || q.BytesQueued() != 0 {
		t.Fatalf("after the skip: dequeued %d of %d, len %d, bytes %d", got, n, q.Len(), q.BytesQueued())
	}
	if q.Params().DT == 0 {
		t.Fatal("Params lost the configured rotation period")
	}
	if q.String() == "" {
		t.Fatal("empty String()")
	}
}
