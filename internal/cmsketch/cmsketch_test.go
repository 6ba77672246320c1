package cmsketch

import (
	"slices"
	"testing"
	"testing/quick"

	"cebinae/internal/packet"
	"cebinae/internal/sim"
)

func flow(i int) packet.FlowKey {
	return packet.FlowKey{Src: packet.NodeID(i), Dst: 7, SrcPort: uint16(i), DstPort: 80, Proto: packet.ProtoTCP}
}

func TestAddAndEstimate(t *testing.T) {
	s := New(4, 1024)
	s.Add(flow(1), 100)
	s.Add(flow(1), 50)
	if got := s.Estimate(flow(1)); got != 150 {
		t.Fatalf("estimate = %d, want 150", got)
	}
	if got := s.Estimate(flow(2)); got != 0 {
		t.Fatalf("fresh flow should estimate 0, got %d", got)
	}
}

// TestNeverUndercounts: count-min estimates are always ≥ the true count.
func TestNeverUndercounts(t *testing.T) {
	f := func(adds []uint8) bool {
		s := New(2, 16) // tiny: heavy collisions
		truth := map[int]int64{}
		for _, a := range adds {
			id := int(a % 64)
			s.Add(flow(id), int64(a)+1)
			truth[id] += int64(a) + 1
		}
		for id, want := range truth {
			if s.Estimate(flow(id)) < want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestAddOrderFree: a counter is the sum of the deltas hashed to it, so
// per-packet Adds of a multi-flow stream, in any order, leave the same
// counters and estimates as one Add per flow of its total. The backbone
// scoring relies on it to build its sketch from per-flow byte truth
// instead of from the core's packet stream. The tiny geometry makes most
// flows share counters with others.
func TestAddOrderFree(t *testing.T) {
	f := func(ids []uint8, sizes []uint16, seed uint64, tiny bool) bool {
		rows, cols := 4, 1024
		if tiny {
			rows, cols = 2, 8
		}
		perPkt, perFlow := New(rows, cols), New(rows, cols)
		var total [16]int64
		for _, i := range sim.NewRand(seed).Perm(len(ids)) {
			id, sz := int(ids[i]%16), int64(1500)
			if i < len(sizes) {
				sz = int64(sizes[i]) + 1
			}
			perPkt.Add(flow(id), sz)
			total[id] += sz
		}
		for id, sz := range total {
			if sz > 0 {
				perFlow.Add(flow(id), sz)
			}
		}
		for r := range perPkt.rows {
			if !slices.Equal(perPkt.rows[r], perFlow.rows[r]) {
				return false
			}
		}
		for id := range 2 * len(total) { // half of these were never added
			if perPkt.Estimate(flow(id)) != perFlow.Estimate(flow(id)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateMax(t *testing.T) {
	s := New(4, 1024)
	s.UpdateMax(flow(1), 500)
	if got := s.Estimate(flow(1)); got != 500 {
		t.Fatalf("estimate = %d, want 500", got)
	}
	s.UpdateMax(flow(1), 300) // lower: must not decrease
	if got := s.Estimate(flow(1)); got != 500 {
		t.Fatalf("UpdateMax must be monotone: %d", got)
	}
	s.UpdateMax(flow(1), 800)
	if got := s.Estimate(flow(1)); got != 800 {
		t.Fatalf("estimate = %d, want 800", got)
	}
}

func TestReset(t *testing.T) {
	s := New(2, 64)
	s.Add(flow(1), 100)
	s.Reset()
	if s.Estimate(flow(1)) != 0 {
		t.Fatal("reset failed")
	}
}

func TestGeometryValidation(t *testing.T) {
	for _, bad := range [][2]int{{0, 64}, {2, 0}, {2, 100}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("New(%d,%d) should panic", bad[0], bad[1])
				}
			}()
			New(bad[0], bad[1])
		}()
	}
}
