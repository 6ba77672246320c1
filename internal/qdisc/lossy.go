package qdisc

import (
	"cebinae/internal/packet"
	"cebinae/internal/sim"
)

// Lossy wraps a drop-tail FIFO and drops selected packets at enqueue — a
// fault-injection shim for exercising transport loss recovery
// deterministically (drop the Nth data packet, a burst, or a random
// fraction). Dequeue, Len and BytesQueued are the FIFO's.
type Lossy struct {
	*FIFO

	// DropSeqs drops data packets whose byte sequence number matches, the
	// given number of times (so a value of 2 also kills the first
	// retransmission when DropRetransmits is set).
	DropSeqs map[int64]int
	// DropNth drops the n-th data packet offered (1-based index set).
	DropNth map[uint64]bool
	// DropProb drops each data packet independently with this probability.
	DropProb float64
	// DropRetransmits extends matching to retransmitted packets (default:
	// only first transmissions are eligible, so recovery can complete).
	DropRetransmits bool

	rng     *sim.Rand
	offered uint64
}

// NewLossy wraps inner with the fault-injection shim.
func NewLossy(inner *FIFO, seed uint64) *Lossy {
	return &Lossy{FIFO: inner, rng: sim.NewRand(seed)}
}

// Enqueue applies the drop rules to data packets, then defers to the FIFO.
func (l *Lossy) Enqueue(p *packet.Packet) bool {
	if p.IsData() && (l.DropRetransmits || !p.Retransmit) {
		l.offered++
		drop := false
		if n := l.DropSeqs[p.Seq]; n > 0 {
			l.DropSeqs[p.Seq] = n - 1
			drop = true
		}
		if l.DropNth != nil && l.DropNth[l.offered] {
			delete(l.DropNth, l.offered)
			drop = true
		}
		if l.DropProb > 0 && l.rng.Float64() < l.DropProb {
			drop = true
		}
		if drop {
			return false
		}
	}
	return l.FIFO.Enqueue(p)
}
