// Package cmsketch implements a count-min sketch over flow keys — the
// approximate per-flow byte counter AFQ uses in hardware (Sharma et al.,
// NSDI '18). Estimates never under-count; collisions only inflate, which
// for AFQ means colliding flows may be scheduled later than their fair
// slot (the inaccuracy the Cebinae paper contrasts with its collision-free
// two-group accounting).
package cmsketch

import (
	"cebinae/internal/packet"
)

// Sketch is a rows×cols count-min sketch of int64 counters.
type Sketch struct {
	rows  [][]int64
	seeds []uint64
	mask  uint64
}

// New builds a sketch with the given geometry; cols must be a power of two.
func New(rows, cols int) *Sketch {
	if rows <= 0 || cols <= 0 || cols&(cols-1) != 0 {
		panic("cmsketch: rows must be positive and cols a power of two")
	}
	s := &Sketch{mask: uint64(cols - 1)}
	for i := 0; i < rows; i++ {
		s.rows = append(s.rows, make([]int64, cols))
		s.seeds = append(s.seeds, 0xA24BAED4963EE407*uint64(i+1))
	}
	return s
}

// Add increments the flow's counters and returns the updated estimate
// (minimum across rows, post-increment).
func (s *Sketch) Add(flow packet.FlowKey, delta int64) int64 {
	est := int64(1<<63 - 1)
	for i := range s.rows {
		idx := flow.Hash(s.seeds[i]) & s.mask
		s.rows[i][idx] += delta
		if v := s.rows[i][idx]; v < est {
			est = v
		}
	}
	return est
}

// UpdateMax raises the flow's counters to at least v and returns the
// resulting estimate — the update rule AFQ's bid tracking uses.
func (s *Sketch) UpdateMax(flow packet.FlowKey, v int64) int64 {
	est := int64(1<<63 - 1)
	for i := range s.rows {
		idx := flow.Hash(s.seeds[i]) & s.mask
		if s.rows[i][idx] < v {
			s.rows[i][idx] = v
		}
		if cur := s.rows[i][idx]; cur < est {
			est = cur
		}
	}
	return est
}

// Estimate returns the current count estimate for the flow.
func (s *Sketch) Estimate(flow packet.FlowKey) int64 {
	est := int64(1<<63 - 1)
	for i := range s.rows {
		idx := flow.Hash(s.seeds[i]) & s.mask
		if v := s.rows[i][idx]; v < est {
			est = v
		}
	}
	return est
}

// Reset zeroes the sketch.
func (s *Sketch) Reset() {
	for i := range s.rows {
		for j := range s.rows[i] {
			s.rows[i][j] = 0
		}
	}
}
