// Package qdisc implements the baseline queue disciplines the paper compares
// Cebinae against: drop-tail FIFO and FQ-CoDel (DRR fair queuing with a
// CoDel AQM instance per flow queue, RFC 8290). All disciplines satisfy the
// structural Qdisc interface consumed by internal/netem devices.
package qdisc

import "cebinae/internal/packet"

// FIFO is a byte-bounded drop-tail queue — the paper's "FIFO" baseline.
type FIFO struct {
	limitBytes int
	q          ring
	bytes      int

	Drops uint64
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
		f.Drops++
		return false
	}
	f.bytes += int(p.Size)
	f.q.push(p)
	return true
}

// Dequeue removes and returns the head packet, or nil when empty.
func (f *FIFO) Dequeue() *packet.Packet {
	p := f.q.pop()
	if p != nil {
		f.bytes -= int(p.Size)
	}
	return p
}

// Len returns the number of queued packets.
func (f *FIFO) Len() int { return f.q.len() }

// BytesQueued returns the number of queued bytes.
func (f *FIFO) BytesQueued() int { return f.bytes }

// ring is a growable FIFO ring buffer of packets, avoiding the per-element
// allocation of container/list on the hot path. Its buffer's length is
// always a power of two (grow), so positions wrap with a mask.
type ring struct {
	buf        []*packet.Packet
	head, tail int
	count      int
}

func (r *ring) len() int { return r.count }

func (r *ring) push(p *packet.Packet) {
	if r.count == len(r.buf) {
		r.grow()
	}
	r.buf[r.tail] = p
	r.tail = (r.tail + 1) & (len(r.buf) - 1)
	r.count++
}

func (r *ring) pop() *packet.Packet {
	if r.count == 0 {
		return nil
	}
	p := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.count--
	return p
}

func (r *ring) peek() *packet.Packet {
	if r.count == 0 {
		return nil
	}
	return r.buf[r.head]
}

// grow sizes the buffer to 16·2ᵏ: push and pop rely on the length being a
// power of two.
func (r *ring) grow() {
	size := len(r.buf) * 2
	if size == 0 {
		size = 16
	}
	buf := make([]*packet.Packet, size)
	for i := 0; i < r.count; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = buf
	r.head = 0
	r.tail = r.count
}
