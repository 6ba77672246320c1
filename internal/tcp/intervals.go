package tcp

// intervalSet maintains a sorted list of disjoint half-open byte ranges.
// It backs both the receiver's out-of-order buffer and the sender's SACK
// scoreboard. The list stays short in practice (one entry per loss hole),
// so linear operations are fine.
type intervalSet struct {
	ivs []interval
}

// add merges [start, end) into the set, returning the number of bytes that
// were not previously covered. The merge is performed in place: the hot
// path (SACK scoreboard updates on every ACK) only allocates when the
// backing array must grow, which amortises to nothing.
func (s *intervalSet) add(start, end int64) int64 {
	if start >= end {
		return 0
	}
	ivs := s.ivs
	n := len(ivs)
	newBytes := end - start

	// Locate the run ivs[i:j] of intervals overlapping or abutting
	// [start, end); everything before i sorts strictly below, everything
	// from j on strictly above.
	i := 0
	for i < n && ivs[i].end < start {
		i++
	}
	j, lo, hi := i, start, end
	for j < n && ivs[j].start <= end {
		iv := ivs[j]
		if oLo, oHi := max(iv.start, start), min(iv.end, end); oHi > oLo {
			newBytes -= oHi - oLo
		}
		if iv.start < lo {
			lo = iv.start
		}
		if iv.end > hi {
			hi = iv.end
		}
		j++
	}

	if i == j {
		// No overlap: open a one-slot gap at i.
		ivs = append(ivs, interval{})
		copy(ivs[i+1:], ivs[i:])
		ivs[i] = interval{lo, hi}
	} else {
		// Collapse the run into a single merged interval.
		ivs[i] = interval{lo, hi}
		ivs = append(ivs[:i+1], ivs[j:]...)
	}
	s.ivs = ivs
	return newBytes
}

// trimBelow removes coverage below bound, returning the bytes removed.
func (s *intervalSet) trimBelow(bound int64) int64 {
	var removed int64
	out := s.ivs[:0]
	for _, iv := range s.ivs {
		switch {
		case iv.end <= bound:
			removed += iv.end - iv.start
		case iv.start < bound:
			removed += bound - iv.start
			out = append(out, interval{bound, iv.end})
		default:
			out = append(out, iv)
		}
	}
	s.ivs = out
	return removed
}

// contains reports whether seq is covered.
func (s *intervalSet) contains(seq int64) bool {
	for _, iv := range s.ivs {
		if seq < iv.start {
			return false
		}
		if seq < iv.end {
			return true
		}
	}
	return false
}

// nextUncovered returns the first byte ≥ seq that is not covered.
func (s *intervalSet) nextUncovered(seq int64) int64 {
	for _, iv := range s.ivs {
		if seq < iv.start {
			return seq
		}
		if seq < iv.end {
			seq = iv.end
		}
	}
	return seq
}

// max returns the highest covered byte boundary, or 0 when empty.
func (s *intervalSet) max() int64 {
	if len(s.ivs) == 0 {
		return 0
	}
	return s.ivs[len(s.ivs)-1].end
}

// total returns the covered byte count.
func (s *intervalSet) total() int64 {
	var t int64
	for _, iv := range s.ivs {
		t += iv.end - iv.start
	}
	return t
}

// clear empties the set.
func (s *intervalSet) clear() { s.ivs = s.ivs[:0] }

// len returns the number of disjoint ranges.
func (s *intervalSet) len() int { return len(s.ivs) }
