// Package hhcache implements Cebinae's egress heavy-hitter flow cache
// (paper §4.2): a multi-stage hash-mapped table adapted from HashPipe
// (Sivaraman et al., SOSR '17) with *passive* memory management — no
// data-plane evictions or recirculation. A packet hashes to one slot per
// stage; it increments the byte counter if the slot is free or already owned
// by its flow, otherwise it tries the next stage; if every stage's slot is
// taken by other flows the packet simply goes uncounted (a tolerable false
// negative). The control plane polls and resets the whole structure every
// interval, letting active heavy hitters immediately reclaim slots.
//
// Passive management is also what keeps the poll a plain walk: a slot is
// freed only by the poll, so within one interval the stage slot a flow
// first claims stays its own and every earlier stage stays taken by
// others — a flow owns at most one slot, and a poll has nothing to merge.
// An occupancy bitmap beside each stage lets the poll visit only the slots
// claimed since the last one, not the whole table.
package hhcache

import (
	"math/bits"

	"cebinae/internal/packet"
)

// Entry is one polled cache slot: a flow and the bytes it was observed to
// send during the interval.
type Entry struct {
	Flow  packet.FlowKey
	Bytes int64
}

type slot struct {
	used  bool
	flow  packet.FlowKey
	bytes int64
}

// Stats counts cache-level events since construction.
type Stats struct {
	Packets   uint64 // packets offered
	Uncounted uint64 // packets that found no slot in any stage
	Occupied  int    // slots in use at last poll
}

// Cache is the multi-stage flow table. It is sized in slots per stage; each
// stage uses an independent hash seed.
type Cache struct {
	stages [][]slot
	// occupied holds one bit per slot, one word per 64 slots, for each
	// stage: Observe sets a slot's bit when it claims the slot, and Poll
	// visits and clears only the slots whose bits are set.
	occupied [][]uint64
	seeds    []uint64
	mask     uint64

	// polled is Poll's result buffer, reused from poll to poll.
	polled []Entry

	stats Stats
}

// New builds a cache with the given number of stages and slots per stage.
// Slots must be a power of two (matching hardware register arrays).
func New(stages, slots int) *Cache {
	if stages <= 0 || slots <= 0 || slots&(slots-1) != 0 {
		panic("hhcache: stages must be positive and slots a power of two")
	}
	c := &Cache{mask: uint64(slots - 1)}
	for i := 0; i < stages; i++ {
		c.stages = append(c.stages, make([]slot, slots))
		c.occupied = append(c.occupied, make([]uint64, (slots+63)/64))
		// Fixed per-stage seeds keep runs reproducible.
		c.seeds = append(c.seeds, 0x9E3779B97F4A7C15*uint64(i+1))
	}
	return c
}

// Stages returns the number of stages.
func (c *Cache) Stages() int { return len(c.stages) }

// SlotsPerStage returns the per-stage slot count.
func (c *Cache) SlotsPerStage() int { return len(c.stages[0]) }

// Observe records bytes for the flow, walking stages until a slot accepts
// it. Returns false when the packet went uncounted.
func (c *Cache) Observe(flow packet.FlowKey, bytes int64) bool {
	c.stats.Packets++
	for i := range c.stages {
		idx := flow.Hash(c.seeds[i]) & c.mask
		s := &c.stages[i][idx]
		if !s.used {
			s.used = true
			s.flow = flow
			s.bytes = bytes
			c.occupied[i][idx/64] |= 1 << (idx % 64)
			return true
		}
		if s.flow == flow {
			s.bytes += bytes
			return true
		}
	}
	c.stats.Uncounted++
	return false
}

// Bytes returns the flow's tracked byte count: the count in the one slot
// the flow owns this interval, or 0 when it went uncounted.
func (c *Cache) Bytes(flow packet.FlowKey) int64 {
	for i := range c.stages {
		idx := flow.Hash(c.seeds[i]) & c.mask
		s := &c.stages[i][idx]
		if s.used && s.flow == flow {
			return s.bytes
		}
	}
	return 0
}

// Poll returns every occupied slot as one entry and resets the cache — the
// control plane's serialisable poll-and-reset. Entries come in stage-then-
// slot order, which the fixed per-stage seeds make a pure function of the
// observed stream; a flow owns at most one slot, so no flow appears twice.
// The slice is a buffer the cache reuses: it is valid until the next Poll.
// Its cost follows the occupied slots, not the table: it walks the
// occupancy bitmap and zeroes only the slots it reads.
func (c *Cache) Poll() []Entry {
	out := c.polled[:0]
	for i, stage := range c.stages {
		words := c.occupied[i]
		for w, word := range words {
			for ; word != 0; word &= word - 1 {
				s := &stage[w*64+bits.TrailingZeros64(word)]
				out = append(out, Entry{Flow: s.flow, Bytes: s.bytes})
				*s = slot{}
			}
			words[w] = 0
		}
	}
	c.polled = out
	c.stats.Occupied = len(out)
	return out
}

// Stats returns cache counters.
func (c *Cache) Stats() Stats { return c.stats }
