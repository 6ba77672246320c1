package qdisc

import (
	"cebinae/internal/cmsketch"
	"cebinae/internal/packet"
)

// AFQ implements Approximate Fair Queueing (Sharma et al., NSDI '18) — the
// calendar-queue fair-queueing approximation the Cebinae paper analyses as
// its main scalability comparison (§2). The switch keeps nQ FIFO queues,
// each representing a future service round of BpR bytes per flow; a
// count-min sketch tracks every flow's cumulative "bid". An arriving packet
// is placed in the queue for round bid/BpR; if that round is more than nQ
// slots ahead of the round currently being served, the packet is dropped —
// the Eq. 1 constraint (buffer_req ≤ BpR × nQ) that caps AFQ's scalability
// in flows, RTT, and burstiness.
//
// Built by NewPCQ, the same calendar is the fair-queueing instantiation of
// Programmable Calendar Queues (Sharma et al., NSDI '20), the other
// scalability comparison the paper's §5.5 names ("AFQ or PCQ"). The only
// difference is the beyond-horizon packet: PCQ enqueues it into the *last*
// slot instead of dropping it, trading fairness degradation for delivery.
// Rotation is queue-drain driven in both: when the head queue empties it
// is recycled to the tail as the farthest-future slot.
type AFQ struct {
	NQ  int   // number of calendar queues (priority levels consumed)
	BpR int64 // bytes per round, per flow

	squash     bool // PCQ: squash beyond-horizon packets instead of dropping them
	limitBytes int
	round      int64 // round currently in service
	queues     []packet.Ring
	bytes      int
	packets    int
	sketch     *cmsketch.Sketch

	// BeyondHorizon counts packets whose bid round lay past the nQ-slot
	// horizon (Eq. 1): dropped by AFQ, squashed into the last slot by PCQ.
	BeyondHorizon uint64
}

// NewAFQ builds an AFQ instance. The sketch geometry follows the NSDI
// prototype's scale (4 rows); cols sizes collision probability.
func NewAFQ(nQ int, bpr int64, limitBytes, sketchCols int) *AFQ {
	if nQ <= 0 || bpr <= 0 {
		panic("qdisc: a calendar queue needs positive nQ and BpR")
	}
	if limitBytes <= 0 {
		limitBytes = 32 << 20
	}
	if sketchCols <= 0 {
		sketchCols = 4096
	}
	return &AFQ{
		NQ:         nQ,
		BpR:        bpr,
		limitBytes: limitBytes,
		queues:     make([]packet.Ring, nQ),
		sketch:     cmsketch.New(4, sketchCols),
	}
}

// NewPCQ builds a PCQ instance (geometry as NewAFQ).
func NewPCQ(nQ int, bpr int64, limitBytes, sketchCols int) *AFQ {
	q := NewAFQ(nQ, bpr, limitBytes, sketchCols)
	q.squash = true
	return q
}

// Enqueue computes the flow's bid and maps it to a calendar slot; beyond
// the horizon it drops (AFQ) or squashes into the last slot (PCQ).
func (a *AFQ) Enqueue(p *packet.Packet) bool {
	if a.bytes+int(p.Size) > a.limitBytes {
		return false
	}
	// bid = max(storedBid, R·BpR) + size  (flows never bid into the past).
	floor := a.round * a.BpR
	bid := a.sketch.Estimate(p.Flow)
	if bid < floor {
		bid = floor
	}
	bid += int64(p.Size)
	slot := bid / a.BpR
	if slot >= a.round+int64(a.NQ) {
		a.BeyondHorizon++
		if !a.squash {
			return false
		}
		slot = a.round + int64(a.NQ) - 1
	}
	a.sketch.UpdateMax(p.Flow, bid)
	idx := int(slot % int64(a.NQ))
	a.bytes += int(p.Size)
	a.packets++
	a.queues[idx].Push(p)
	return true
}

// Dequeue serves the current round's queue, rotating to the next non-empty
// round when it drains (work-conserving across rounds).
func (a *AFQ) Dequeue() *packet.Packet {
	for tries := 0; tries <= a.NQ; tries++ {
		idx := int(a.round % int64(a.NQ))
		if p := a.queues[idx].Pop(); p != nil {
			a.bytes -= int(p.Size)
			a.packets--
			return p
		}
		if a.packets == 0 {
			return nil
		}
		a.round++ // current round drained: open the next slot
	}
	return nil
}

// Len returns the queued packet count.
func (a *AFQ) Len() int { return a.packets }

// BytesQueued returns the buffered byte total.
func (a *AFQ) BytesQueued() int { return a.bytes }

// Round returns the round currently in service (diagnostics).
func (a *AFQ) Round() int64 { return a.round }
