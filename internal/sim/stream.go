package sim

import "sync"

// Stream is a caller-owned FIFO of pending events, each with its own handler
// and payload: the surface for sequences whose keys are sorted by
// construction — packets in propagation on every link of one delay and
// serialisation time, arrivals injected from one cut link, a connection's
// order-preserving send jitter. The zero Stream is ready; push with
// Engine.StreamCall.
//
// Every push draws its sequence number from the engine's counter exactly
// where ScheduleCall would have, and entries dispatch under the same
// (time, emission time, seq) comparison as every other event. Because a
// stream's own keys never decrease, its head is its minimum, so only the
// head needs a heap residency: the minimum over the heap is still the
// global minimum, and the merged dispatch order is the one a heap holding
// every entry would produce. The heap then carries one event per busy
// stream instead of one per entry, and whoever can prove that several
// producers push in key order between them (serialisations start in
// dispatch order, so start+ser+delay is sorted across every link of one
// delay and serialisation time) lets them share one stream and one
// residency.
//
// The head entry lives in the residency itself; the entries behind it live
// in fixed-size blocks drawn from an engine-wide free list and returned as
// they drain. A stream that holds one entry at a time never touches a
// block, a deep one holds memory only in proportion to what is in flight on
// it, and growth never copies. An engine whose free list is empty takes a
// block from a process-wide pool of cleared blocks before it allocates one,
// and Engine.Recycle hands every block the engine holds back there.
type Stream struct {
	// ev is the heap residency while the stream is non-empty, carrying the
	// head entry's key and handler; ev.arg back-points to the Stream, so the
	// head's payload is kept in arg.
	ev  Event
	arg any

	// head..tail hold the entries queued behind the head, from index hi of
	// the first block to index ti of the last; both nil when there are
	// none.
	head, tail *streamBlock
	hi, ti     int

	// tailAt/tailSched are the key of the most recent push, checked against
	// the next one while the stream is non-empty.
	tailAt, tailSched Time
}

// streamBlockLen makes a block fill the allocator's 2048-byte size class
// (36 × 56 B entries plus the link).
const streamBlockLen = 36

type streamEntry struct {
	at, schedAt Time
	seq         uint64
	h           Handler
	arg         any
}

type streamBlock struct {
	ent  [streamBlockLen]streamEntry
	next *streamBlock
}

// TailAt returns the deadline of the most recent push, moved along with the
// entry by every FastForward it was pending across. Once that entry has
// fired the value lies in the past, so clamping a new deadline to it (an
// order-preserving jitter queue) changes nothing.
func (s *Stream) TailAt() Time { return s.tailAt }

// StreamCall appends an entry to s that runs h.OnEvent(arg) at absolute
// virtual time at (clamped to now), ordered among same-instant events as if
// scheduled when the clock read `from` — which may lie in the past or the
// future. A transmitter pushing a packet's arrival as its serialisation
// starts passes the completion instant, where the arrival would otherwise
// have been pushed; a conservative-parallel runner (internal/shard)
// injecting a packet handed across a cut link passes the completion
// instant on the source engine, possibly in this engine's past, which
// slots the arrival among same-instant local events exactly where a single
// merged engine would have.
//
// It returns the sequence number the entry drew, for a caller that keys a
// related occurrence to it (ScheduleOwned).
//
// Panics if from > at (an arrival cannot precede its emission) or if the
// key (at, from) sorts before the stream's pending tail: FIFO order is the
// stream's precondition, and a violation would silently reorder dispatch.
func (e *Engine) StreamCall(s *Stream, at, from Time, h Handler, arg any) uint64 {
	if from > at {
		panic("sim: StreamCall with scheduling stamp after the deadline")
	}
	if at < e.now {
		at = e.now
	}
	if s.ev.pos == 0 {
		s.ev.at, s.ev.schedAt, s.ev.seq = at, from, e.seq
		s.ev.kind = kindStream
		s.ev.handler = h
		s.ev.arg = s
		s.arg = arg
		e.heapPush(&s.ev)
	} else {
		if at < s.tailAt || (at == s.tailAt && from < s.tailSched) {
			panic("sim: StreamCall key sorts before the stream's tail")
		}
		b := s.tail
		if b == nil || s.ti == streamBlockLen {
			nb := e.getBlock()
			if nb == nil {
				nb = newBlock()
			}
			if b == nil {
				s.head, s.hi = nb, 0
			} else {
				b.next = nb
			}
			b, s.tail, s.ti = nb, nb, 0
		}
		b.ent[s.ti] = streamEntry{at: at, schedAt: from, seq: e.seq, h: h, arg: arg}
		s.ti++
		e.backlog++
	}
	s.tailAt, s.tailSched = at, from
	e.seq++
	return e.seq - 1
}

// dispatchStream fires the head entry of the stream whose residency ev is
// at the heap root. The residency takes over the next entry's key and is
// sifted down from the root in place — one sift where a per-entry event
// would cost a pop and a push — or leaves the heap when the stream drains.
// Either way the heap is consistent before the handler runs, so the handler
// may push onto this same stream.
func (e *Engine) dispatchStream(ev *Event) {
	s := ev.arg.(*Stream)
	h, arg := ev.handler, s.arg
	b := s.head
	if b == nil {
		ev.handler, s.arg = nil, nil
		e.heapPopMin()
	} else {
		nx := &b.ent[s.hi]
		ev.at, ev.schedAt, ev.seq = nx.at, nx.schedAt, nx.seq
		ev.handler, s.arg = nx.h, nx.arg
		nx.h, nx.arg = nil, nil
		s.hi++
		e.backlog--
		if b == s.tail && s.hi == s.ti {
			s.head, s.tail = nil, nil
			e.putBlock(b)
		} else if s.hi == streamBlockLen {
			s.head, s.hi = b.next, 0
			e.putBlock(b)
		}
		e.siftDown(0, ev)
	}
	h.OnEvent(arg)
}

// shift moves the entries queued behind the head by d (FastForward shifts
// the residency, and with it the head's key, itself).
func (s *Stream) shift(d Time) {
	i := s.hi
	for b := s.head; b != nil; b = b.next {
		end := streamBlockLen
		if b == s.tail {
			end = s.ti
		}
		for ; i < end; i++ {
			ent := &b.ent[i]
			ent.at += d
			ent.schedAt += d
		}
		i = 0
	}
	s.tailAt += d
	s.tailSched += d
}

// getBlock draws an entry block from the engine-wide free list, or returns
// nil when it is empty (StreamCall then takes one from newBlock). Blocks
// come back with every handler and payload reference already cleared by
// dispatch.
func (e *Engine) getBlock() *streamBlock {
	b := e.freeBlocks
	if b == nil {
		return nil
	}
	e.freeBlocks = b.next
	b.next = nil
	return b
}

// blocks holds the cleared stream blocks every engine's Recycle handed
// back, for any engine of the process to draw.
var blocks sync.Pool // *streamBlock

// newBlock draws a block for an engine whose free list is empty: a
// recycled one, or a fresh allocation when the process has none. It is
// kept out of line and called from StreamCall, so the process pool adds
// nothing to getBlock's inline cost.
//
//go:noinline
func newBlock() *streamBlock {
	if b, _ := blocks.Get().(*streamBlock); b != nil {
		return b
	}
	return &streamBlock{}
}

// Recycle ends the engine's run: it hands every stream block the engine
// made back to the process, cleared — those on its free list and those
// still queued behind a stream's head — and drops them from their streams.
// The engine and its streams must not run again.
func (e *Engine) Recycle() {
	for _, ev := range e.queue {
		if ev.kind != kindStream {
			continue
		}
		s := ev.arg.(*Stream)
		for b := s.head; b != nil; {
			b = recycleBlock(b)
		}
		s.head, s.tail, s.hi, s.ti = nil, nil, 0, 0
	}
	for b := e.freeBlocks; b != nil; {
		b = recycleBlock(b)
	}
	e.freeBlocks, e.backlog = nil, 0
}

// recycleBlock clears b, hands it to the process pool and returns the
// block it linked to.
func recycleBlock(b *streamBlock) *streamBlock {
	next := b.next
	*b = streamBlock{}
	blocks.Put(b)
	return next
}

func (e *Engine) putBlock(b *streamBlock) {
	b.next = e.freeBlocks
	e.freeBlocks = b
}
