package packet

import "sync"

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
// Both free lists are LIFO stacks of doubling segments (stack), so a
// pool that grows to N free packets holds about log₂(N/stackBase)
// segments and has never copied a pointer. Fresh SACK arrays come from
// slabs, as packets do.
//
// Slabs outlive the run that drew them: a pool takes a new slab from a
// process-wide sync.Pool of cleared slabs before it allocates one, and
// Recycle hands every slab the pool drew back there, cleared, once its
// run is over. Two live runs never share a slab.
//
// Building with -tags packetdebug poisons every released packet (see
// pool_debug.go): a read after release sees sentinel values, a second
// release panics, and so does a Get of a packet written after release.
// Recycle poisons every packet of the slabs it hands back, so a read after
// the run ended sees the sentinels too.
type Pool struct {
	free stack[Packet]
	// sacks is the free list of SACK arrays.
	sacks stack[[MaxSack]SackBlock]
	// slab is the unused tail of the current packet slab, sackSlab of the
	// current SACK array slab.
	slab     []Packet
	sackSlab [][MaxSack]SackBlock
	// slabs and sackSlabs list every slab the pool drew, for Recycle.
	slabs     slabList[[slabLen]Packet]
	sackSlabs slabList[[sackSlabLen][MaxSack]SackBlock]
	debug     poolDebug
	// Gets / Reuses count allocations served and how many were recycled
	// (Gets - Reuses packets were fresh from a slab).
	Gets   uint64
	Reuses uint64
	// SackGets / SackReuses count the same for SACK arrays
	// (SackGets - SackReuses arrays were fresh from a slab).
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

// sackSlabLen is the number of SACK arrays one slab allocation provides:
// 64 × 48 B = 3 KiB, exactly one allocator size class.
const sackSlabLen = 64

// Get returns a zeroed packet, reusing a released one when available. Its
// SACK field is nil: a packet that carries blocks draws an array with
// GetSack.
func (pl *Pool) Get() *Packet {
	pl.Gets++
	p := pl.free.pop()
	if p == nil {
		return pl.fresh()
	}
	pl.Reuses++
	pl.debug.onGet(p)
	*p = Packet{}
	return p
}

// Put releases p back to the pool. p must not be referenced by the caller
// afterwards. Its SACK array, if any, goes onto the array free list and
// the field is cleared; its other fields keep their values until the
// packet is reused, except under -tags packetdebug, which overwrites them
// with sentinels at once.
func (pl *Pool) Put(p *Packet) {
	pl.debug.onPut(p)
	if p.SACK != nil {
		pl.sacks.push(p.SACK)
		p.SACK = nil
	}
	pl.free.push(p)
}

// GetSack returns a SACK array for a packet about to carry blocks: the
// one released last, or a fresh one from a slab when none is free. Its
// contents are stale; the caller writes the blocks it sets NSack to. The
// array returns to the pool with the packet that holds it.
func (pl *Pool) GetSack() *[MaxSack]SackBlock {
	pl.SackGets++
	if a := pl.sacks.pop(); a != nil {
		pl.SackReuses++
		return a
	}
	return pl.freshSack()
}

// slabs and sackSlabs hold the cleared slabs every Pool's Recycle handed
// back, for any pool of the process to draw. They store pointers to
// arrays, so a Put allocates nothing.
var (
	slabs     sync.Pool // *[slabLen]Packet
	sackSlabs sync.Pool // *[sackSlabLen][MaxSack]SackBlock
)

// fresh hands out the next packet of the current slab. When the slab is
// used up it draws the next one: a recycled slab from the process, or a
// fresh allocation when the process has none. It is kept out of line, so
// the process pool costs Get one call and nothing more.
//
//go:noinline
func (pl *Pool) fresh() *Packet {
	if len(pl.slab) == 0 {
		s, _ := slabs.Get().(*[slabLen]Packet)
		if s == nil {
			s = new([slabLen]Packet)
		} else {
			pl.debug.onSlab(s[:])
		}
		pl.slabs.add(s)
		pl.slab = s[:]
	}
	p := &pl.slab[0]
	pl.slab = pl.slab[1:]
	return p
}

// freshSack is fresh for SACK arrays.
//
//go:noinline
func (pl *Pool) freshSack() *[MaxSack]SackBlock {
	if len(pl.sackSlab) == 0 {
		s, _ := sackSlabs.Get().(*[sackSlabLen][MaxSack]SackBlock)
		if s == nil {
			s = new([sackSlabLen][MaxSack]SackBlock)
		}
		pl.sackSlabs.add(s)
		pl.sackSlab = s[:]
	}
	a := &pl.sackSlab[0]
	pl.sackSlab = pl.sackSlab[1:]
	return a
}

// Recycle ends the pool's run: it hands every packet and SACK slab the
// pool drew back to the process, cleared, and leaves the pool empty. No
// packet of the run may be touched afterwards — under -tags packetdebug
// every one of them reads as poisoned — and a later Get draws a new slab.
func (pl *Pool) Recycle() {
	pl.slabs.drain(func(s *[slabLen]Packet) {
		*s = [slabLen]Packet{}
		pl.debug.onRecycle(s[:])
		slabs.Put(s)
	})
	pl.sackSlabs.drain(func(s *[sackSlabLen][MaxSack]SackBlock) {
		*s = [sackSlabLen][MaxSack]SackBlock{}
		sackSlabs.Put(s)
	})
	pl.free, pl.sacks = stack[Packet]{}, stack[[MaxSack]SackBlock]{}
	pl.slab, pl.sackSlab = nil, nil
}

// slabList lists the slabs of one kind a pool drew. The first is kept
// inline, so a pool that draws one slab allocates nothing beside it.
type slabList[T any] struct {
	first *T
	rest  []*T
}

func (l *slabList[T]) add(s *T) {
	if l.first == nil {
		l.first = s
	} else {
		l.rest = append(l.rest, s)
	}
}

// drain calls f on every listed slab and empties the list.
func (l *slabList[T]) drain(f func(*T)) {
	if l.first != nil {
		f(l.first)
	}
	for _, s := range l.rest {
		f(s)
	}
	*l = slabList[T]{}
}

// FreeLen returns the number of packets currently on the free list.
func (pl *Pool) FreeLen() int { return pl.free.len() }

// SackFreeLen returns the number of SACK arrays on their free list.
func (pl *Pool) SackFreeLen() int { return pl.sacks.len() }

// stack is a LIFO of pointers kept in segments that double in size:
// segment k holds stackBase·2ᵏ entries. A segment, once made, is kept for
// the stack's lifetime, and growing past the top segment makes the next
// one instead of copying, so no entry is ever copied and a stack that has
// held N entries at once made ⌈log₂(N/stackBase + 1)⌉ segments. The zero
// value is empty.
type stack[T any] struct {
	segs [stackSegs][]*T
	// top is segs[seg] (nil before the first push) and holds n entries.
	top []*T
	seg int
	n   int
}

// stackBase is the first segment's length (2 KiB of pointers), and
// stackSegs the most segments a stack can have: 256·(2³² − 1) entries.
const (
	stackBase = 256
	stackSegs = 32
)

// push puts v on top, moving up a segment when the top one is full and
// making that segment the first time it is reached.
func (s *stack[T]) push(v *T) {
	if s.n == len(s.top) {
		if s.top != nil {
			s.seg++
		}
		if s.segs[s.seg] == nil {
			s.segs[s.seg] = make([]*T, stackBase<<s.seg)
		}
		s.top, s.n = s.segs[s.seg], 0
	}
	s.top[s.n] = v
	s.n++
}

// pop returns the entry pushed last, or nil when the stack is empty.
func (s *stack[T]) pop() *T {
	if s.n == 0 {
		if s.seg == 0 {
			return nil
		}
		s.seg--
		s.top = s.segs[s.seg]
		s.n = len(s.top)
	}
	s.n--
	v := s.top[s.n]
	s.top[s.n] = nil
	return v
}

// len returns the number of entries on the stack: the full segments below
// the top one hold stackBase·(2^seg − 1).
func (s *stack[T]) len() int { return stackBase*(1<<s.seg-1) + s.n }

// Sink takes back the packets a queue discipline discards after admitting
// them. netem.Device.SetQdisc hands one to every qdisc with a SetSink
// method; it counts each packet as the device's drop and returns it to the
// device's network's pool.
type Sink interface {
	// Release takes p out of the caller's hands for good: the sink returns
	// the packet to its network's pool, and the caller must not touch it
	// again.
	Release(p *Packet)
}
