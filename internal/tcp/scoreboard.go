package tcp

import (
	"fmt"
	"sync"

	"cebinae/internal/packet"
	"cebinae/internal/sim"
)

// sentRecord is what the sender remembers of one outstanding segment. Its
// stamps, like every stamp the connection keeps, are readings of the
// engine's Local clock. A record's segment number is its place in the
// scoreboard, so it holds none: four 8-byte words, the size and three
// flags make 40 bytes.
type sentRecord struct {
	sentAt        sim.Time
	deliveredAtTx int64
	txTimeAtTx    sim.Time
	firstTxAtTx   sim.Time // send time of the last-delivered packet at send
	size          int32
	live          bool // the record is of an outstanding segment
	retransmitted bool
	appLimited    bool
}

// blockLen is the records in one block: 32 × 40 B = 1280 B, exactly one
// allocator size class.
const blockLen = 32

// sentBlock holds the records of blockLen consecutive segments: block b
// holds segments b·blockLen … b·blockLen+blockLen−1.
type sentBlock [blockLen]sentRecord

// scoreboard holds the records of the outstanding segments, those of
// [sndUna, sndNxt), in blocks. Segments start on MSS boundaries (only the
// last one under a DataLimit is short), so the record of the segment at seq
// is record seq/MSS % blockLen of block seq/MSS / blockLen. A ring of block
// pointers indexed by block number holds the blocks [lo, hi) in slot
// b & (len−1), nil outside them; it doubles when the held span outgrows it,
// copying pointers only. When the cumulative ACK passes the end of a block,
// clearSent hands the block to the spare list, where open takes its blocks
// from before it allocates. Once the window has reached its size nothing is
// allocated, and a connection owns about ⌈peak window / blockLen⌉ + 1
// blocks, and no record is ever copied. A scoreboard with no spare takes a
// block from a process-wide pool of cleared blocks before it allocates
// one, and recycle hands every block it owns back there.
type scoreboard struct {
	ring   []*sentBlock // len is zero or a power of two
	lo, hi int64        // the block numbers held; none when lo == hi
	spare  []*sentBlock // released blocks, for reuse
}

// scoreboardMinBlocks is the ring's first size: room for the initial
// window wherever it falls.
const scoreboardMinBlocks = 4

// get returns the live record of the segment starting at seq, or nil. The
// pointer is good until the next clearSent; clearing its live bit retires
// the record.
func (s *scoreboard) get(seq int64) *sentRecord {
	seg := seq / packet.MSS
	if seq < 0 || seg*packet.MSS != seq {
		return nil // no segment starts off the MSS grid
	}
	b := seg / blockLen
	if b < s.lo || b >= s.hi {
		return nil
	}
	blk := s.ring[b&int64(len(s.ring)-1)]
	if blk == nil {
		return nil
	}
	if r := &blk[seg%blockLen]; r.live {
		return r
	}
	return nil
}

// open returns the record of the segment starting at seq, claiming a zeroed
// record for it unless it is already live (a retransmission). A seq off the
// MSS grid has no record: it panics.
func (s *scoreboard) open(seq int64) *sentRecord {
	seg := seq / packet.MSS
	if seq < 0 || seg*packet.MSS != seq {
		panic(fmt.Sprintf("tcp: segment at seq %d does not start on an MSS (%d) boundary", seq, packet.MSS))
	}
	r := &s.hold(seg / blockLen)[seg%blockLen]
	if !r.live {
		*r = sentRecord{live: true}
	}
	return r
}

// hold returns block b, widening [lo, hi) to it and filling its slot from
// the spare list (or a new block) if it is not held.
func (s *scoreboard) hold(b int64) *sentBlock {
	lo, hi := s.lo, s.hi
	switch {
	case lo == hi:
		lo, hi = b, b+1
	case b < lo:
		lo = b
	case b >= hi:
		hi = b + 1
	}
	if hi-lo > int64(len(s.ring)) {
		s.grow(hi - lo)
	}
	s.lo, s.hi = lo, hi
	slot := &s.ring[b&int64(len(s.ring)-1)]
	if *slot == nil {
		if n := len(s.spare); n > 0 {
			*slot = s.spare[n-1]
			s.spare = s.spare[:n-1]
			**slot = sentBlock{}
		} else {
			*slot = newBlock()
		}
	}
	return *slot
}

// blocks holds the cleared scoreboard blocks every connection's Recycle
// handed back, for any connection of the process to draw.
var blocks sync.Pool // *sentBlock

// newBlock draws a block for a scoreboard with no spare: a recycled one,
// or a fresh allocation when the process has none.
//
//go:noinline
func newBlock() *sentBlock {
	if b, _ := blocks.Get().(*sentBlock); b != nil {
		return b
	}
	return new(sentBlock)
}

// recycle hands every block the scoreboard owns, held or spare, back to
// the process, cleared, and leaves it holding none.
func (s *scoreboard) recycle() {
	for i, b := range s.ring {
		if b != nil {
			*b = sentBlock{}
			blocks.Put(b)
			s.ring[i] = nil
		}
	}
	for i, b := range s.spare {
		*b = sentBlock{}
		blocks.Put(b)
		s.spare[i] = nil
	}
	s.spare, s.lo, s.hi = s.spare[:0], 0, 0
}

// grow doubles the ring until it spans span blocks, moving the held block
// pointers to their slots under the wider mask. The spare list grows with
// it to the ring's length: a block is made only when no spare is left and
// at most the ring's length are held at once, so a connection never owns
// more blocks than its ring has slots, and clearSent never appends past
// the spare list's capacity.
func (s *scoreboard) grow(span int64) {
	n := max(2*len(s.ring), scoreboardMinBlocks)
	for int64(n) < span {
		n *= 2
	}
	ring := make([]*sentBlock, n)
	for b := s.lo; b < s.hi; b++ {
		ring[b&int64(n-1)] = s.ring[b&int64(len(s.ring)-1)]
	}
	s.ring = ring
	s.spare = append(make([]*sentBlock, 0, n), s.spare...)
}

// clearSent retires the records of the segments in [from, to), the span a
// cumulative ACK advanced over, and releases every block wholly below to —
// whose segments all start below it — to the spare list.
func (s *scoreboard) clearSent(from, to int64) {
	for seq := from; seq < to; {
		rec := s.get(seq)
		if rec == nil {
			// Sizes are uniform except possibly the final segment; step by
			// MSS to resynchronise.
			seq += packet.MSS
			continue
		}
		rec.live = false
		seq += int64(rec.size)
	}
	// The first block that can still hold a live record: that of the
	// first segment starting at or after to.
	keep := (to + packet.MSS - 1) / packet.MSS / blockLen
	for ; s.lo < s.hi && s.lo < keep; s.lo++ {
		slot := &s.ring[s.lo&int64(len(s.ring)-1)]
		if *slot != nil {
			s.spare = append(s.spare, *slot)
			*slot = nil
		}
	}
}
