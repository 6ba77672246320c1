package packet

// Ring is a growable FIFO of packets — the queue under every discipline
// (the FIFO, FQ-CoDel's flow queues, AFQ's calendar slots, Cebinae's two
// queues and the strawman) — avoiding the per-element allocation of
// container/list on the hot path. Its buffer's length is always a power of
// two (grow), so positions wrap with a mask. The zero value is empty.
type Ring struct {
	buf        []*Packet
	head, tail int
	count      int
}

// Len returns the number of queued packets.
func (r *Ring) Len() int { return r.count }

// Push appends p at the tail.
func (r *Ring) Push(p *Packet) {
	if r.count == len(r.buf) {
		r.grow()
	}
	r.buf[r.tail] = p
	r.tail = (r.tail + 1) & (len(r.buf) - 1)
	r.count++
}

// Pop removes and returns the head packet, or nil when empty.
func (r *Ring) Pop() *Packet {
	if r.count == 0 {
		return nil
	}
	p := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.count--
	return p
}

// Peek returns the head packet without removing it, or nil when empty.
func (r *Ring) Peek() *Packet {
	if r.count == 0 {
		return nil
	}
	return r.buf[r.head]
}

// grow sizes the buffer to 16·2ᵏ: Push and Pop rely on the length being a
// power of two.
func (r *Ring) grow() {
	size := len(r.buf) * 2
	if size == 0 {
		size = 16
	}
	buf := make([]*Packet, size)
	for i := 0; i < r.count; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = buf
	r.head = 0
	r.tail = r.count
}
