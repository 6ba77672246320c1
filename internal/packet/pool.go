package packet

// Pool is a free list of Packet structs owned by one simulation (one
// engine's goroutine), so it needs no locking — unlike sync.Pool there is
// no per-P caching or cross-goroutine contention, and recycled packets
// never migrate between concurrent simulations.
//
// Fresh packets come from slabs: when the free list is empty, Get hands
// out the next packet of a slabLen-packet array and allocates a new array
// only when the current one is used up.
//
// Ownership protocol: a packet is drawn with Get when a sender builds it,
// travels through queues and links under single ownership, and is released
// with Put exactly once at the point it leaves the simulated network — on
// delivery to its endpoint, or on drop. A packet that is never Put keeps
// its whole slab alive until the network goes away, so a discipline that
// discards packets it has already admitted (an overflow victim, a CoDel
// drop at dequeue) does not abandon them: a qdisc on a netem device
// releases its discards through the Sink that netem.Device.SetQdisc hands
// it, and the device counts each as a drop before it Puts it. A packet
// built outside the pool may still be Put into it.
//
// The pool also keeps a free list of SACK block arrays: Put moves a
// released packet's array there, and GetSack hands one to a packet about
// to carry blocks. So the arrays in existence follow the ACKs with blocks
// in flight, not every packet that ever carried one.
//
// Building with -tags packetdebug enables a double-free detector that
// panics when a packet is released twice without an intervening Get.
type Pool struct {
	free []*Packet
	// sacks is the free list of SACK arrays.
	sacks []*[MaxSack]SackBlock
	// slab is the unused tail of the current slab.
	slab  []Packet
	debug poolDebug
	// Gets / Reuses count allocations served and how many were recycled
	// (Gets - Reuses packets were fresh from a slab).
	Gets   uint64
	Reuses uint64
	// SackGets / SackReuses count the same for SACK arrays
	// (SackGets - SackReuses arrays were allocated).
	SackGets   uint64
	SackReuses uint64
}

// slabLen is the number of packets one slab allocation provides. A slab
// is 512 × 64 B = 32 KiB, just past the runtime's largest small size
// class, so it is allocated as a large object: page-aligned and with no
// malloc header in front (a pointer-carrying object above 512 B and
// below 32 KiB gets an 8-byte header, which would push every packet of
// a smaller slab 8 bytes off its cache line). Every packet of a slab
// therefore starts on a 64-byte line boundary.
const slabLen = 512

// Get returns a zeroed packet, reusing a released one when available. Its
// SACK field is nil: a packet that carries blocks draws an array with
// GetSack.
func (pl *Pool) Get() *Packet {
	pl.Gets++
	n := len(pl.free)
	if n == 0 {
		if len(pl.slab) == 0 {
			pl.slab = make([]Packet, slabLen)
		}
		p := &pl.slab[0]
		pl.slab = pl.slab[1:]
		return p
	}
	pl.Reuses++
	p := pl.free[n-1]
	pl.free[n-1] = nil
	pl.free = pl.free[:n-1]
	pl.debug.onGet(p)
	*p = Packet{}
	return p
}

// Put releases p back to the pool. p must not be referenced by the caller
// afterwards. Its SACK array, if any, goes onto the array free list and
// the field is cleared; its other fields keep their values until the
// packet is reused.
func (pl *Pool) Put(p *Packet) {
	pl.debug.onPut(p)
	if p.SACK != nil {
		pl.sacks = append(pl.sacks, p.SACK)
		p.SACK = nil
	}
	pl.free = append(pl.free, p)
}

// GetSack returns a SACK array for a packet about to carry blocks: the
// one released last, or a fresh one when none is free. Its contents are
// stale; the caller writes the blocks it sets NSack to. The array returns
// to the pool with the packet that holds it.
func (pl *Pool) GetSack() *[MaxSack]SackBlock {
	pl.SackGets++
	n := len(pl.sacks)
	if n == 0 {
		return new([MaxSack]SackBlock)
	}
	pl.SackReuses++
	a := pl.sacks[n-1]
	pl.sacks[n-1] = nil
	pl.sacks = pl.sacks[:n-1]
	return a
}

// FreeLen returns the number of packets currently on the free list.
func (pl *Pool) FreeLen() int { return len(pl.free) }

// SackFreeLen returns the number of SACK arrays on their free list.
func (pl *Pool) SackFreeLen() int { return len(pl.sacks) }

// Sink takes back the packets a queue discipline discards after admitting
// them. netem.Device.SetQdisc hands one to every qdisc with a SetSink
// method; it counts each packet as the device's drop and returns it to the
// device's network's pool.
type Sink interface {
	// Release takes p out of the caller's hands for good.
	//
	//pktown:consumes p the sink returns the packet to its network's pool; the caller must not touch it again
	Release(p *Packet)
}
