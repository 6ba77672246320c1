package hhcache

import (
	"slices"
	"testing"
	"testing/quick"

	"cebinae/internal/packet"
	"cebinae/internal/sim"
)

func flow(i int) packet.FlowKey {
	return packet.FlowKey{Src: packet.NodeID(i), Dst: packet.NodeID(i + 100000), SrcPort: uint16(i), DstPort: 80, Proto: packet.ProtoTCP}
}

func TestObserveAndBytes(t *testing.T) {
	c := New(2, 64)
	c.Observe(flow(1), 100)
	c.Observe(flow(1), 50)
	if got := c.Bytes(flow(1)); got != 150 {
		t.Fatalf("Bytes = %d, want 150", got)
	}
	if got := c.Bytes(flow(2)); got != 0 {
		t.Fatalf("untracked flow should read 0, got %d", got)
	}
}

func TestPollResetsAndMerges(t *testing.T) {
	c := New(2, 64)
	c.Observe(flow(1), 100)
	c.Observe(flow(2), 200)
	entries := c.Poll()
	if len(entries) != 2 {
		t.Fatalf("expected 2 entries, got %d", len(entries))
	}
	byBytes := map[int64]bool{}
	for _, e := range entries {
		byBytes[e.Bytes] = true
	}
	if !byBytes[100] || !byBytes[200] {
		t.Fatalf("entries wrong: %+v", entries)
	}
	if len(c.Poll()) != 0 {
		t.Fatal("poll must reset the cache")
	}
	if c.Bytes(flow(1)) != 0 {
		t.Fatal("post-poll reads must be zero")
	}
}

func TestCollisionFallsToNextStage(t *testing.T) {
	// With 1 slot per stage everything collides; a second stage must
	// absorb the second flow.
	c := New(2, 1)
	if !c.Observe(flow(1), 10) {
		t.Fatal("first flow must land")
	}
	if !c.Observe(flow(2), 20) {
		t.Fatal("second flow must land in stage 2")
	}
	if c.Observe(flow(3), 30) {
		t.Fatal("third flow must be uncounted (both slots taken)")
	}
	if c.Stats().Uncounted != 1 {
		t.Fatalf("uncounted = %d", c.Stats().Uncounted)
	}
}

// TestNoFalseInflation: a flow's polled byte count never exceeds what was
// observed for it (no cross-flow pollution) — the paper's "never make
// unfairness worse" requirement on the cache.
func TestNoFalseInflation(t *testing.T) {
	f := func(obs []uint8) bool {
		c := New(2, 4) // tiny cache: heavy collisions
		truth := map[int]int64{}
		for _, o := range obs {
			id := int(o % 16)
			c.Observe(flow(id), int64(o)+1)
			truth[id] += int64(o) + 1
		}
		_ = len(obs)
		for _, e := range c.Poll() {
			id := int(e.Flow.Src)
			if e.Bytes > truth[id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHeavyHitterSurvivesCrowd(t *testing.T) {
	// One elephant among 2000 mice in a 2×256 cache: the elephant sends
	// 100× more packets, so it should (re)claim a slot and dominate the max.
	c := New(2, 256)
	rng := sim.NewRand(3)
	for round := 0; round < 100; round++ {
		c.Observe(flow(0), 1500)
		for i := 0; i < 20; i++ {
			c.Observe(flow(1+rng.Intn(2000)), 1500)
		}
	}
	entries := c.Poll()
	var max Entry
	for _, e := range entries {
		if e.Bytes > max.Bytes {
			max = e
		}
	}
	if max.Flow != flow(0) {
		t.Fatalf("elephant not the max: %+v", max)
	}
}

func TestPassiveManagementRecovery(t *testing.T) {
	// Fill the cache with mice, poll, and verify the elephant claims a slot
	// in the fresh interval (passive memory management §4.2).
	c := New(1, 8)
	for i := 0; i < 64; i++ {
		c.Observe(flow(i+1000), 100)
	}
	c.Poll()
	if !c.Observe(flow(0), 1500) {
		t.Fatal("fresh interval must admit the elephant")
	}
	if c.Bytes(flow(0)) != 1500 {
		t.Fatal("elephant bytes wrong after reclaim")
	}
}

func TestGeometryValidation(t *testing.T) {
	for _, bad := range []struct{ stages, slots int }{{0, 16}, {1, 0}, {1, 3}, {-1, 8}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("New(%d,%d) should panic", bad.stages, bad.slots)
				}
			}()
			New(bad.stages, bad.slots)
		}()
	}
}

func TestGeometryAccessors(t *testing.T) {
	c := New(4, 128)
	if c.Stages() != 4 || c.SlotsPerStage() != 128 {
		t.Fatalf("geometry accessors wrong: %d/%d", c.Stages(), c.SlotsPerStage())
	}
}

// TestPollOneSlotPerFlow: under passive management a flow owns at most one
// slot per interval, so a poll lists no flow twice, and the bytes it
// reports are exactly the bytes Observe accepted. Tiny stages force the
// collisions that push flows past stage 0.
func TestPollOneSlotPerFlow(t *testing.T) {
	f := func(obs []uint16, stagesSeed, slotsSeed uint8) bool {
		stages := 1 + int(stagesSeed%4)
		c := New(stages, 1<<(slotsSeed%4)) // 1–8 slots a stage
		var counted int64
		for _, o := range obs {
			b := int64(o%1500) + 1
			if c.Observe(flow(int(o%32)), b) {
				counted += b
			}
		}
		entries := c.Poll()
		if c.Stats().Occupied != len(entries) {
			return false
		}
		seen := map[packet.FlowKey]bool{}
		var polled int64
		for _, e := range entries {
			if seen[e.Flow] || e.Bytes <= 0 {
				return false
			}
			seen[e.Flow] = true
			polled += e.Bytes
		}
		return polled == counted
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// pollScan is the poll without the occupancy bitmap: it reads every slot
// of every stage in order, keeps the occupied ones and zeroes the table
// and the bitmap.
func (c *Cache) pollScan() []Entry {
	var out []Entry
	for i, stage := range c.stages {
		for j := range stage {
			if s := &stage[j]; s.used {
				out = append(out, Entry{Flow: s.flow, Bytes: s.bytes})
			}
		}
		clear(stage)
		clear(c.occupied[i])
	}
	c.stats.Occupied = len(out)
	return out
}

// TestPollMatchesFullScan: on random fills of random geometries — stages
// from sparse to full, slots both under and over one bitmap word — Poll
// returns exactly the full scan's entries in its stage-then-slot order
// and leaves the same table behind, over several intervals of one cache.
func TestPollMatchesFullScan(t *testing.T) {
	f := func(seed uint64, stagesSeed, slotsSeed uint8, flowsSeed uint16) bool {
		stages, slots := 1+int(stagesSeed%3), 1<<(slotsSeed%9) // 1–256 slots a stage
		flows := 1 + int(flowsSeed)%(2*stages*slots)
		got, want := New(stages, slots), New(stages, slots)
		rng := sim.NewRand(seed)
		for interval := 0; interval < 3; interval++ {
			for n := rng.Intn(3 * flows); n > 0; n-- {
				k, b := flow(rng.Intn(flows)), int64(1+rng.Intn(1500))
				if got.Observe(k, b) != want.Observe(k, b) {
					return false
				}
			}
			pg, pw := got.Poll(), want.pollScan()
			if len(pg) != len(pw) || got.Stats() != want.Stats() {
				return false
			}
			for i := range pg {
				if pg[i] != pw[i] {
					return false
				}
			}
			for i := range got.stages {
				if !slices.Equal(got.stages[i], want.stages[i]) || !slices.Equal(got.occupied[i], want.occupied[i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPollZeroAlloc: once its buffer has grown to the table's occupancy, a
// poll allocates nothing — the control plane polls every round.
func TestPollZeroAlloc(t *testing.T) {
	c := New(2, 2048)
	fill := func() {
		for i := 0; i < 8192; i++ {
			c.Observe(flow(i), 700)
		}
	}
	fill()
	c.Poll() // warm: grows the buffer to a full table
	allocs := testing.AllocsPerRun(20, func() {
		fill()
		if len(c.Poll()) == 0 {
			t.Fatal("poll of a filled cache returned nothing")
		}
	})
	if allocs != 0 {
		t.Fatalf("Poll allocates %.1f times per call once warm, want 0", allocs)
	}
}
