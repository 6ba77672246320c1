package qdisc

import (
	"testing"

	"cebinae/internal/packet"
)

func afqPkt(flow int, size int32) *packet.Packet {
	return &packet.Packet{
		Flow: packet.FlowKey{Src: packet.NodeID(flow), Dst: 99, SrcPort: uint16(flow), DstPort: 80, Proto: packet.ProtoTCP},
		Size: size, PayloadSize: size - packet.HeaderBytes,
	}
}

func TestAFQRoundRobinFairness(t *testing.T) {
	// Two flows, one bursting 40 packets, one 10: with BpR = one packet,
	// service must interleave near-perfectly (per-round fairness).
	a := NewAFQ(64, 1500, 1<<20, 4096)
	for i := 0; i < 40; i++ {
		if !a.Enqueue(afqPkt(1, 1500)) {
			t.Fatalf("flow1 pkt %d dropped (horizon too small?)", i)
		}
	}
	for i := 0; i < 10; i++ {
		if !a.Enqueue(afqPkt(2, 1500)) {
			t.Fatalf("flow2 pkt %d dropped", i)
		}
	}
	counts := map[packet.NodeID]int{}
	for i := 0; i < 20; i++ {
		p := a.Dequeue()
		counts[p.Flow.Src]++
	}
	// First 20 services cover rounds 1..10: both flows served ~equally.
	if counts[2] < 8 {
		t.Fatalf("thin flow under-served: %v", counts)
	}
}

func TestAFQHorizonDrop(t *testing.T) {
	// nQ=4, BpR=1500: a flow may have at most 4 rounds (packets) queued.
	a := NewAFQ(4, 1500, 1<<20, 4096)
	admitted := 0
	for i := 0; i < 10; i++ {
		if a.Enqueue(afqPkt(1, 1500)) {
			admitted++
		}
	}
	if admitted >= 5 {
		t.Fatalf("Eq.1 horizon must cap the burst: admitted %d of 10", admitted)
	}
	if a.BeyondHorizon == 0 {
		t.Fatal("horizon drops not counted")
	}
}

func TestAFQRoundAdvancesOnDrain(t *testing.T) {
	a := NewAFQ(8, 1500, 1<<20, 4096)
	for i := 0; i < 5; i++ {
		a.Enqueue(afqPkt(1, 1500))
	}
	for i := 0; i < 5; i++ {
		if a.Dequeue() == nil {
			t.Fatalf("packet %d missing", i)
		}
	}
	if a.Dequeue() != nil {
		t.Fatal("drained AFQ should return nil")
	}
	if a.Round() == 0 {
		t.Fatal("round should have advanced")
	}
	// New arrivals after idle must still be schedulable.
	if !a.Enqueue(afqPkt(2, 1500)) {
		t.Fatal("post-idle arrival dropped")
	}
	if a.Dequeue() == nil {
		t.Fatal("post-idle packet lost")
	}
}

func TestAFQBufferOverflow(t *testing.T) {
	a := NewAFQ(64, 1500, 3*1500, 4096)
	var l ledger
	for i := 0; i < 3; i++ {
		if !l.offer(a, afqPkt(i+1, 1500)) {
			t.Fatal("within buffer should fit")
		}
	}
	if l.offer(a, afqPkt(9, 1500)) {
		t.Fatal("buffer overflow must drop")
	}
	// AFQ refuses a packet for a full buffer or a bid past the horizon.
	if overflow := l.drops - a.BeyondHorizon; overflow != 1 {
		t.Fatalf("overflow drops = %d", overflow)
	}
}

func TestAFQAccounting(t *testing.T) {
	a := NewAFQ(16, 3000, 1<<20, 4096)
	a.Enqueue(afqPkt(1, 1500))
	a.Enqueue(afqPkt(2, 1000))
	if a.Len() != 2 || a.BytesQueued() != 2500 {
		t.Fatalf("len=%d bytes=%d", a.Len(), a.BytesQueued())
	}
	a.Dequeue()
	a.Dequeue()
	if a.Len() != 0 || a.BytesQueued() != 0 {
		t.Fatalf("post-drain len=%d bytes=%d", a.Len(), a.BytesQueued())
	}
}

// TestAFQManyFlowsExceedHorizon demonstrates the paper's Eq. 1 scaling
// argument directly: with fixed nQ×BpR, a burst of one BDP per flow fits
// at low flow counts but overruns the calendar at high counts.
func TestAFQManyFlowsExceedHorizon(t *testing.T) {
	burstPerFlow := 8 // packets arriving back-to-back per flow
	run := func(flows int) (dropped uint64) {
		a := NewAFQ(32, 1500, 1<<30, 8192)
		for round := 0; round < burstPerFlow; round++ {
			for f := 0; f < flows; f++ {
				a.Enqueue(afqPkt(f+1, 1500))
			}
		}
		return a.BeyondHorizon
	}
	if d := run(4); d != 0 {
		t.Fatalf("4 flows × 8 packets must fit a 32-slot calendar, dropped %d", d)
	}
	if d := run(64); d != 0 {
		// Per-flow bursts of 8 < 32 slots still fit regardless of flow
		// count — AFQ's horizon is per flow.
		t.Fatalf("64 flows × 8 packets should fit per-flow horizons, dropped %d", d)
	}
	// The horizon binds per flow: 40 packets per flow exceeds 32 slots.
	a := NewAFQ(32, 1500, 1<<30, 8192)
	for i := 0; i < 40; i++ {
		a.Enqueue(afqPkt(1, 1500))
	}
	if a.BeyondHorizon == 0 {
		t.Fatal("per-flow burst beyond nQ slots must drop")
	}
}
