// Package metrics provides the measurement machinery of the evaluation:
// Jain's Fairness Index (plain and max-min normalised), the per-flow
// goodput meter and its time series, and the nearest-rank percentile and
// mean of a sample, matching the metrics reported in the paper's §5.
package metrics

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"

	"cebinae/internal/sim"
)

// JFI computes Jain's Fairness Index over the given values:
// (Σx)² / (n·Σx²). It is 1 for equal allocations and 1/n when a single
// flow takes everything. Values must be non-negative; an empty or all-zero
// input yields 0.
func JFI(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, v := range values {
		sum += v
		sumSq += v * v
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(values)) * sumSq)
}

// NormalizedJFI computes the max-min-relative JFI of §5.3: x_i = r_i / r̂_i,
// where r̂ is the ideal max-min allocation, then JFI over the x_i. The two
// slices must have equal length; ideal entries must be positive.
func NormalizedJFI(measured, ideal []float64) float64 {
	if len(measured) != len(ideal) || len(measured) == 0 {
		return 0
	}
	x := make([]float64, len(measured))
	for i := range measured {
		if ideal[i] <= 0 {
			return 0
		}
		x[i] = measured[i] / ideal[i]
	}
	return JFI(x)
}

// FlowMeter accumulates a single flow's byte deliveries and converts them
// to rates over windows. A query answers as a log of every (time,
// cumulative bytes) pair would: with the bytes of the records stamped at or
// before the instant asked about. How much it keeps depends on whether it
// was told those instants in advance:
//
//   - A meter with marks (Mark, called before the records pass the
//     instants) keeps the cumulative bytes at its marks only. Its memory
//     follows the instants a run reads, not the segments it delivers: Record
//     allocates nothing. A query at an instant that was not declared
//     panics, naming it.
//   - A meter with no marks keeps the exact log, stored as delta-encoded
//     samples in fixed-size blocks (about 4 bytes a record, nothing copied
//     as it grows), and answers at any instant.
//
// The zero value is an empty meter with no marks.
type FlowMeter struct {
	total  int64
	last   sim.Time // stamp of the latest record
	marks  []mark   // ascending, distinct instants
	open   int      // marks[open:] have seen no later record
	blocks []*meterBlock
}

// mark is a declared instant and, once a record stamped after it arrives,
// the cumulative bytes recorded at or before it.
type mark struct {
	t     sim.Time
	bytes int64
}

// meterBlockBytes sizes a block to one 4 KB allocation, header included.
const meterBlockBytes = 4096

// maxSampleBytes is the longest encoding of one sample: two 64-bit varints.
const maxSampleBytes = 2 * binary.MaxVarintLen64

// meterBlock holds a run of consecutive samples, each a uvarint Δt in ns
// since the previous sample followed by a varint Δbytes. t0 and b0 are the
// stamp and the cumulative bytes of the sample before the block's first
// (zero at the start of the log), so a block decodes without its
// predecessors and the headers alone order the blocks in time.
type meterBlock struct {
	t0   sim.Time
	b0   int64
	n    int // bytes of data in use
	data [meterBlockBytes - 24]byte
}

// Mark declares instants the meter will be asked about, and with the first
// one turns the meter from keeping the log to keeping its marks. It may be
// called several times and in any order before the records reach the
// instants, and declaring an instant twice is a no-op; but a new instant
// behind the latest record, or before 0 where records start, cannot be
// recovered: it panics.
func (m *FlowMeter) Mark(ts ...sim.Time) {
	m.marks = slices.Grow(m.marks, len(ts))
	for _, t := range ts {
		i, found := m.search(t)
		switch {
		case found:
		case t < 0:
			panic(fmt.Sprintf("metrics: FlowMeter.Mark at %d ns: records start at 0", t))
		case t < m.last:
			panic(fmt.Sprintf("metrics: FlowMeter.Mark at %d ns behind a record at %d ns: declare instants before the records pass them", t, m.last))
		default:
			m.marks = slices.Insert(m.marks, i, mark{t: t})
		}
	}
}

// search returns the index of the first mark at or after t and whether it
// is at t.
func (m *FlowMeter) search(t sim.Time) (int, bool) {
	return slices.BinarySearchFunc(m.marks, t, func(k mark, t sim.Time) int { return cmp.Compare(k.t, t) })
}

// Record adds newBytes delivered at time t. Calls must be time-ordered:
// t may equal the previous call's stamp but not precede it, nor be
// negative. newBytes may be (a fluid skip's rounding credit can be).
// A marked meter closes every open mark strictly before t at the bytes
// recorded so far; an unmarked one appends the record to its log.
func (m *FlowMeter) Record(t sim.Time, newBytes int64) {
	if t < m.last {
		panic(fmt.Sprintf("metrics: FlowMeter.Record at %d ns after a record at %d ns: calls must be time-ordered", t, m.last))
	}
	if len(m.marks) > 0 {
		for m.open < len(m.marks) && m.marks[m.open].t < t {
			m.marks[m.open].bytes = m.total
			m.open++
		}
	} else {
		m.log(t, newBytes)
	}
	m.last = t
	m.total += newBytes
}

// log appends one sample to the block log.
func (m *FlowMeter) log(t sim.Time, newBytes int64) {
	var b *meterBlock
	if n := len(m.blocks); n > 0 {
		b = m.blocks[n-1]
	}
	if b == nil || len(b.data)-b.n < maxSampleBytes {
		b = &meterBlock{t0: m.last, b0: m.total}
		m.blocks = append(m.blocks, b)
	}
	b.n += binary.PutUvarint(b.data[b.n:], uint64(t-m.last))
	b.n += binary.PutVarint(b.data[b.n:], newBytes)
}

// Total returns all bytes recorded.
func (m *FlowMeter) Total() int64 { return m.total }

// RateOver returns the average rate in bytes/second over [from, to]: the
// bytes recorded after from and at or before to.
func (m *FlowMeter) RateOver(from, to sim.Time) float64 {
	if to <= from {
		return 0
	}
	return float64(m.bytesAt(to)-m.bytesAt(from)) / (to - from).Seconds()
}

// bytesAt returns the cumulative bytes delivered up to and including t: at
// a mark, or from the log — a binary search over the block headers, then
// a decode of part of one block.
func (m *FlowMeter) bytesAt(t sim.Time) int64 {
	if len(m.marks) > 0 {
		i, found := m.search(t)
		if !found {
			panic(fmt.Sprintf("metrics: FlowMeter read at %d ns, an instant never declared with Mark", t))
		}
		if i >= m.open {
			return m.total
		}
		return m.marks[i].bytes
	}
	if t >= m.last {
		return m.total
	}
	// The block to decode is the last one whose predecessor ended at or
	// before t. The block after it starts from a stamp beyond t, which is
	// this block's last sample: the decode stops inside this block.
	i := sort.Search(len(m.blocks), func(i int) bool { return m.blocks[i].t0 > t })
	if i == 0 {
		return 0
	}
	b := m.blocks[i-1]
	c := meterCursor{blocks: m.blocks[i-1 : i], t: b.t0, bytes: b.b0}
	return c.advance(t)
}

// meterCursor decodes the log forward. t and bytes are the stamp and the
// cumulative bytes of the last sample consumed; the next sample to decode
// is at data[off] of blocks[0].
type meterCursor struct {
	blocks []*meterBlock
	off    int
	t      sim.Time
	bytes  int64
}

// advance consumes every sample stamped at or before t and returns the
// cumulative bytes delivered by then.
func (c *meterCursor) advance(t sim.Time) int64 {
	for len(c.blocks) > 0 {
		b := c.blocks[0]
		if c.off == b.n {
			c.blocks, c.off = c.blocks[1:], 0
			continue
		}
		dt, k := binary.Uvarint(b.data[c.off:b.n])
		at := c.t + sim.Time(dt)
		if at > t {
			break
		}
		db, j := binary.Varint(b.data[c.off+k : b.n])
		c.off += k + j
		c.t = at
		c.bytes += db
	}
	return c.bytes
}

// SeriesInstants lists the instants Series(interval, horizon) reads — 0,
// each multiple of interval below horizon, and horizon — for Mark.
func SeriesInstants(interval, horizon sim.Time) []sim.Time {
	if interval <= 0 || horizon <= 0 {
		return nil
	}
	n := int((horizon + interval - 1) / interval)
	out := make([]sim.Time, 0, n+1)
	for i := 0; i < n; i++ {
		out = append(out, sim.Time(i)*interval)
	}
	return append(out, horizon)
}

// Series converts the meter into a per-interval rate series in
// bytes/second, covering [0, horizon) in steps of interval: element i is
// RateOver(i·interval, min((i+1)·interval, horizon)). A marked meter must
// hold every instant of SeriesInstants(interval, horizon); an unmarked one
// answers in one forward pass over its log.
func (m *FlowMeter) Series(interval, horizon sim.Time) []float64 {
	if interval <= 0 || horizon <= 0 {
		return nil
	}
	n := int((horizon + interval - 1) / interval)
	out := make([]float64, n)
	c := meterCursor{blocks: m.blocks}
	at := func(t sim.Time) int64 {
		if len(m.marks) > 0 {
			return m.bytesAt(t)
		}
		return c.advance(t)
	}
	atFrom := at(0)
	for i := 0; i < n; i++ {
		from := sim.Time(i) * interval
		to := from + interval
		if to > horizon {
			to = horizon
		}
		atTo := at(to)
		out[i] = float64(atTo-atFrom) / (to - from).Seconds()
		atFrom = atTo
	}
	return out
}

// Percentile returns the p-th percentile (0..100) of values using
// nearest-rank on a sorted copy.
func Percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank]
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}
