package tcp

import (
	"fmt"

	"cebinae/internal/sim"
)

// sentRecord is what the sender remembers of one outstanding segment. Its
// stamps, like every stamp the connection keeps, are readings of the
// engine's Local clock. The scoreboard holds records by value, so the
// layout is kept to 48 bytes: five 8-byte words, the size, three flags.
type sentRecord struct {
	seq           int64
	sentAt        sim.Time
	deliveredAtTx int64
	txTimeAtTx    sim.Time
	firstTxAtTx   sim.Time // send time of the last-delivered packet at send
	size          int32
	live          bool // the slot holds an outstanding segment
	retransmitted bool
	appLimited    bool
}

// scoreboard holds the records of the outstanding segments in a ring
// indexed by segment number: the record of the segment starting at seq lives
// in slot seq/MSS & (cap−1), stamped with its seq. Segments start on MSS
// boundaries (only the last one under a DataLimit is short) and the live
// records are those of [sndUna, sndNxt), so a ring of at least a window's
// worth of segments never has two live records claiming one slot; the ring
// doubles when a transmit finds that it would. Nothing is allocated while
// the window stays within the capacity it has reached.
type scoreboard struct {
	slots []sentRecord // len is zero or a power of two
	mss   int64
}

// scoreboardMinSlots is the ring's first size: room for the initial window.
const scoreboardMinSlots = 16

// get returns the live record of the segment starting at seq, or nil. The
// pointer is good until the next open; clearing its live bit retires the
// record.
func (s *scoreboard) get(seq int64) *sentRecord {
	if len(s.slots) == 0 {
		return nil
	}
	r := &s.slots[int(seq/s.mss)&(len(s.slots)-1)]
	if r.live && r.seq == seq {
		return r
	}
	return nil
}

// open returns the record of the segment starting at seq, claiming a zeroed
// slot for it unless it is already live (a retransmission). A seq off the
// MSS grid would share a slot with its neighbour: it panics.
func (s *scoreboard) open(seq int64) *sentRecord {
	seg := seq / s.mss
	if seg*s.mss != seq {
		panic(fmt.Sprintf("tcp: segment at seq %d does not start on an MSS (%d) boundary", seq, s.mss))
	}
	for {
		if len(s.slots) > 0 {
			r := &s.slots[int(seg)&(len(s.slots)-1)]
			if !r.live {
				*r = sentRecord{seq: seq, live: true}
				return r
			}
			if r.seq == seq {
				return r
			}
		}
		s.grow()
	}
}

// grow doubles the ring, keeping the length a power of two (the slot index
// is a mask). Records that did not share a slot under the smaller mask do
// not under the larger.
func (s *scoreboard) grow() {
	size := 2 * len(s.slots)
	if size == 0 {
		size = scoreboardMinSlots
	}
	slots := make([]sentRecord, size)
	for i := range s.slots {
		if r := &s.slots[i]; r.live {
			slots[int(r.seq/s.mss)&(size-1)] = *r
		}
	}
	s.slots = slots
}
