package hhcache

import (
	"math"
	"sort"
	"testing"

	"cebinae/internal/packet"
	"cebinae/internal/sim"
)

// The scale tests exercise the cache at backbone cardinality — 10⁵ distinct
// flows through a table three orders of magnitude smaller — where the
// passive-eviction design actually has to earn its keep: churn must not
// wedge slots, poll-and-reset must keep recalling the live heavy hitters,
// and everything must stay bit-deterministic under a seeded stream.

const scaleFlows = 100_000

// scaleKey builds the i-th of 10⁵+ distinct flow keys (SrcPort alone wraps
// at 2¹⁶, so the overflow moves into the source address).
func scaleKey(i int) packet.FlowKey {
	return packet.FlowKey{
		Src:     packet.NodeID(1 + i>>16),
		Dst:     2,
		SrcPort: uint16(i),
		DstPort: uint16(i*40503) | 1,
		Proto:   packet.ProtoTCP,
	}
}

// paretoBytes draws a bounded-Pareto flow size — the trace generator's skew
// shape, reproduced locally so the test is self-contained.
func paretoBytes(rng *sim.Rand, alpha, lo, hi float64) int64 {
	u := rng.Float64()
	ratio := math.Pow(lo/hi, alpha)
	return int64(lo * math.Pow(1-u*(1-ratio), -1/alpha))
}

// scaleStream builds a deterministic packet stream over scaleFlows flows
// with bounded-Pareto per-flow volumes: packet counts proportional to
// size, order shuffled by the seeded generator. Returns the stream (flow
// ordinals) and the exact per-flow byte truth.
func scaleStream(seed uint64) (stream []int32, truth []int64) {
	rng := sim.NewRand(seed)
	truth = make([]int64, scaleFlows)
	for i := range truth {
		truth[i] = paretoBytes(rng, 1.2, 700, 1<<24)
	}
	for i, b := range truth {
		for n := int64(0); n < b; n += 1500 {
			stream = append(stream, int32(i))
		}
	}
	// Fisher–Yates with the same seeded generator: heavy hitters arrive
	// interleaved with the mice, not in convenient runs.
	for i := len(stream) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		stream[i], stream[j] = stream[j], stream[i]
	}
	return stream, truth
}

// pktBytes is the wire size every stream entry contributes; a flow's
// observed volume is therefore its packet count × pktBytes, which ranks
// identically to the drawn sizes.
const pktBytes = 1500

// runPolledCache streams the packets through a cache with nPolls
// control-plane poll-and-reset rounds; returns the union of flows ever
// reported and the final round's entries.
func runPolledCache(c *Cache, stream []int32, nPolls int) (held map[packet.FlowKey]bool, last []Entry) {
	held = make(map[packet.FlowKey]bool)
	every := len(stream)/nPolls + 1
	for i, f := range stream {
		c.Observe(scaleKey(int(f)), pktBytes)
		if (i+1)%every == 0 {
			for _, e := range c.Poll() {
				held[e.Flow] = true
			}
		}
	}
	last = c.Poll()
	for _, e := range last {
		held[e.Flow] = true
	}
	return held, last
}

// TestScaleRecallUnderSkew: at 10⁵ flows and bounded-Pareto skew, a 2×2048
// polled cache must recall nearly all of the true top-64 — the regime the
// backbone tier's recall score depends on.
func TestScaleRecallUnderSkew(t *testing.T) {
	stream, truth := scaleStream(7)
	c := New(2, 2048)
	held, _ := runPolledCache(c, stream, 8)

	order := make([]int, len(truth))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if truth[order[a]] != truth[order[b]] {
			return truth[order[a]] > truth[order[b]]
		}
		return order[a] < order[b]
	})
	const topK = 64
	hit := 0
	for _, i := range order[:topK] {
		if held[scaleKey(i)] {
			hit++
		}
	}
	if recall := float64(hit) / topK; recall < 0.9 {
		t.Fatalf("top-%d recall %.3f at %d flows, want >= 0.9", topK, recall, scaleFlows)
	}
	if st := c.Stats(); st.Uncounted == 0 {
		t.Error("10^5 flows through 4096 slots must overflow some packets; Uncounted stayed 0")
	}
}

// TestScaleChurnCorrectness: saturate every slot with one-packet flows,
// then verify a poll round frees the table — a fresh elephant claims a slot
// immediately and its polled byte count is exact. Passive management means
// churn can only cost false negatives, never corrupt a counter.
func TestScaleChurnCorrectness(t *testing.T) {
	c := New(2, 2048)
	for i := 0; i < scaleFlows; i++ {
		c.Observe(scaleKey(i), pktBytes)
	}
	entries := c.Poll()
	if occ := c.Stats().Occupied; occ != c.Stages()*c.SlotsPerStage() {
		t.Fatalf("%d one-packet flows left the table at %d of %d slots", scaleFlows, occ, c.Stages()*c.SlotsPerStage())
	}
	if len(entries) != c.Stages()*c.SlotsPerStage() {
		t.Fatalf("poll returned %d entries from a saturated table", len(entries))
	}
	for _, e := range entries {
		if e.Bytes != pktBytes {
			t.Fatalf("single-packet flow %v polled with %d bytes, want %d", e.Flow, e.Bytes, pktBytes)
		}
	}

	// Post-reset: an elephant arriving into the cleared table is counted
	// exactly, regardless of the churn that saturated the previous round.
	elephant := scaleKey(scaleFlows + 1)
	for i := 0; i < 1000; i++ {
		if !c.Observe(elephant, pktBytes) {
			t.Fatal("elephant went uncounted in a freshly reset table")
		}
	}
	if got := c.Bytes(elephant); got != 1000*pktBytes {
		t.Fatalf("elephant counted %d bytes, want %d", got, 1000*pktBytes)
	}
}

// TestScaleDeterminism: the full 10⁵-flow polled pipeline run twice must
// report identical entry sequences — Poll's stage-then-slot order is a
// pure function of the seeded stream and the fixed per-stage hash seeds,
// with no map or wall-clock state in between.
func TestScaleDeterminism(t *testing.T) {
	run := func() []Entry {
		stream, _ := scaleStream(11)
		c := New(2, 1024)
		var all []Entry
		every := len(stream)/4 + 1
		for i, f := range stream {
			c.Observe(scaleKey(int(f)), pktBytes)
			if (i+1)%every == 0 {
				all = append(all, c.Poll()...)
			}
		}
		return append(all, c.Poll()...)
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("entry counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("entry %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}
