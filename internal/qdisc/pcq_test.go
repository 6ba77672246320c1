package qdisc

import (
	"testing"

	"cebinae/internal/packet"
)

func TestPCQRoundRobinFairness(t *testing.T) {
	q := NewPCQ(64, 1500, 1<<20, 4096)
	for i := 0; i < 40; i++ {
		q.Enqueue(afqPkt(1, 1500))
	}
	for i := 0; i < 10; i++ {
		q.Enqueue(afqPkt(2, 1500))
	}
	counts := map[packet.NodeID]int{}
	for i := 0; i < 20; i++ {
		counts[q.Dequeue().Flow.Src]++
	}
	if counts[2] < 8 {
		t.Fatalf("thin flow under-served: %v", counts)
	}
}

// TestPCQSquashesInsteadOfDropping: the defining contrast with AFQ — a
// burst past the horizon is delivered (from the last slot), not dropped.
func TestPCQSquashesInsteadOfDropping(t *testing.T) {
	q := NewPCQ(4, 1500, 1<<20, 4096)
	for i := 0; i < 10; i++ {
		if !q.Enqueue(afqPkt(1, 1500)) {
			t.Fatalf("PCQ must admit beyond-horizon packet %d", i)
		}
	}
	if q.BeyondHorizon == 0 {
		t.Fatal("beyond-horizon packets must be counted as squashed")
	}
	delivered := 0
	for q.Dequeue() != nil {
		delivered++
	}
	if delivered != 10 {
		t.Fatalf("all admitted packets must be deliverable, got %d", delivered)
	}
}

// TestPCQSquashDegradesOrdering: squashed packets land in the last slot,
// so a thin flow arriving later can be served *before* the fat flow's
// squashed tail — fairness preserved for the thin flow.
func TestPCQSquashDegradesOrdering(t *testing.T) {
	q := NewPCQ(4, 1500, 1<<20, 4096)
	for i := 0; i < 8; i++ {
		q.Enqueue(afqPkt(1, 1500)) // slots 1..3 + squashed tail in slot 3
	}
	q.Enqueue(afqPkt(2, 1500)) // thin flow: slot 1
	firstSix := map[packet.NodeID]int{}
	for i := 0; i < 6; i++ {
		firstSix[q.Dequeue().Flow.Src]++
	}
	if firstSix[2] != 1 {
		t.Fatalf("thin flow should be served within the first rounds: %v", firstSix)
	}
}

func TestPCQBufferOverflow(t *testing.T) {
	q := NewPCQ(8, 1500, 2*1500, 4096)
	var l ledger
	l.offer(q, afqPkt(1, 1500))
	l.offer(q, afqPkt(2, 1500))
	if l.offer(q, afqPkt(3, 1500)) {
		t.Fatal("buffer overflow must drop")
	}
	// PCQ squashes a bid past the horizon: it refuses only for a full buffer.
	if l.drops != 1 {
		t.Fatalf("overflow drops = %d", l.drops)
	}
}

func TestPCQIdleRecovery(t *testing.T) {
	q := NewPCQ(8, 1500, 1<<20, 4096)
	q.Enqueue(afqPkt(1, 1500))
	q.Dequeue()
	if q.Dequeue() != nil {
		t.Fatal("drained PCQ must return nil")
	}
	if !q.Enqueue(afqPkt(2, 1500)) || q.Dequeue() == nil {
		t.Fatal("post-idle arrival broken")
	}
	if q.Len() != 0 || q.BytesQueued() != 0 {
		t.Fatal("accounting broken after idle cycle")
	}
}
