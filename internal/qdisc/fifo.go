// Package qdisc implements the baseline queue disciplines the paper compares
// Cebinae against: drop-tail FIFO and FQ-CoDel (DRR fair queuing with a
// CoDel AQM instance per flow queue, RFC 8290). All disciplines satisfy the
// structural Qdisc interface consumed by internal/netem devices.
package qdisc

import "cebinae/internal/packet"

// FIFO is a byte-bounded drop-tail queue — the paper's "FIFO" baseline.
type FIFO struct {
	limitBytes int
	q          packet.Ring
	bytes      int
}

// NewFIFO returns a drop-tail FIFO holding at most limitBytes. A limit of
// zero or less means effectively unbounded.
func NewFIFO(limitBytes int) *FIFO {
	if limitBytes <= 0 {
		limitBytes = 1 << 40
	}
	return &FIFO{limitBytes: limitBytes}
}

// Enqueue admits p unless it would exceed the byte limit.
func (f *FIFO) Enqueue(p *packet.Packet) bool {
	if f.bytes+int(p.Size) > f.limitBytes {
		return false
	}
	f.bytes += int(p.Size)
	f.q.Push(p)
	return true
}

// Dequeue removes and returns the head packet, or nil when empty.
func (f *FIFO) Dequeue() *packet.Packet {
	p := f.q.Pop()
	if p != nil {
		f.bytes -= int(p.Size)
	}
	return p
}

// Len returns the number of queued packets.
func (f *FIFO) Len() int { return f.q.Len() }

// BytesQueued returns the number of queued bytes.
func (f *FIFO) BytesQueued() int { return f.bytes }
