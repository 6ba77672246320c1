package shard

import (
	"cebinae/internal/packet"
	"cebinae/internal/sim"
)

// record is one packet in flight across a shard boundary. Packet pools
// are per-shard and unsynchronised, so the packet's bytes are copied out
// of the source pool at handoff and copied into the destination pool at
// injection. The packet's SACK blocks (at most packet.MaxSack) are
// captured in a fixed inline buffer, so the record holds no pointer into
// the source shard's memory and handoff performs no allocation.
type record struct {
	// sent is the virtual time the packet's last bit left the source
	// device; arrival is sent plus the link's propagation delay. Both
	// ride across the boundary: arrival places the injected event on the
	// destination's clock, sent orders it among same-instant destination
	// events exactly where a single merged engine would have (see
	// sim.Engine.StreamCall).
	sent    sim.Time
	arrival sim.Time
	pkt     packet.Packet
	sack    [packet.MaxSack]packet.SackBlock
}

// capture fills the record from p without retaining any of p's memory.
func (r *record) capture(p *packet.Packet, sent, arrival sim.Time) {
	r.sent = sent
	r.arrival = arrival
	r.pkt = *p
	r.pkt.SACK = nil
	if p.NSack > 0 {
		r.sack = *p.SACK
	}
}

// restore copies the record into a packet drawn from pl, the destination
// shard's pool, with a SACK array from the same pool when it carries
// blocks.
func (r *record) restore(pl *packet.Pool) *packet.Packet {
	q := pl.Get()
	*q = r.pkt
	if q.NSack > 0 {
		q.SACK = pl.GetSack()
		*q.SACK = r.sack
	}
	return q
}

// ringSize bounds the lock-free part of each cut-link queue. A window's
// worth of full-size packets at typical bottleneck rates fits easily;
// bursts beyond it spill to the producer-owned overflow slice, so the
// queue never blocks and never drops.
const ringSize = 512

// spsc is a bounded single-producer single-consumer queue of handoff
// records with an unbounded overflow. The producer is the source shard's
// goroutine, which pushes only during run phases; the consumer is the
// destination shard's goroutine, which drains only during drain phases.
// Cluster.Run's barrier separates the two phases — every push
// happens-before every subsequent drain via the worker channels — so no
// field needs atomics; `make race` exercises the full path to keep that
// honest.
type spsc struct {
	buf      [ringSize]record
	head     uint64 // next slot to consume
	tail     uint64 // next slot to produce
	overflow []record
}

// push appends r (producer side). FIFO order is preserved across the
// ring/overflow split: once a window spills to overflow the ring is full
// and stays full until the barrier drain, so every ring entry predates
// every overflow entry.
func (q *spsc) push(r *record) {
	t := q.tail
	if t-q.head < ringSize {
		q.buf[t%ringSize] = *r
		q.tail = t + 1
		return
	}
	q.overflow = append(q.overflow, *r)
}

// empty reports whether the queue holds no records (consumer side).
func (q *spsc) empty() bool {
	return q.head == q.tail && len(q.overflow) == 0
}

// peekArrival returns the earliest queued arrival time (consumer side).
// Per-link FIFO order is arrival order — every record on one link shares
// the link's delay — so the head record is the earliest; ring entries
// always predate overflow entries. Returns MaxTime when empty.
func (q *spsc) peekArrival() sim.Time {
	if q.head != q.tail {
		return q.buf[q.head%ringSize].arrival
	}
	if len(q.overflow) > 0 {
		return q.overflow[0].arrival
	}
	return sim.MaxTime
}

// drainInto moves every queued record in FIFO order into *dst, tagging
// each with the inbound-link ordinal (consumer side, drain phases only).
// Appending into the shard's reusable pending slice — instead of handing
// records to a closure — keeps the per-window drain allocation-free once
// the slice has grown to the steady-state window population.
func (q *spsc) drainInto(dst *[]pendingArrival, link int) {
	h, t := q.head, q.tail
	for ; h < t; h++ {
		r := &q.buf[h%ringSize]
		*dst = append(*dst, pendingArrival{rec: *r, link: link})
		*r = record{}
	}
	q.head = h
	for i := range q.overflow {
		*dst = append(*dst, pendingArrival{rec: q.overflow[i], link: link})
		q.overflow[i] = record{}
	}
	q.overflow = q.overflow[:0]
}
