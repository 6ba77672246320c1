package core

import (
	"maps"
	"reflect"
	"testing"

	"cebinae/internal/hhcache"
	"cebinae/internal/packet"
	"cebinae/internal/sim"
)

// TestConfigForOrderIndependent: the shadow configuration a recompute
// derives must not depend on the order the cache polls its entries in —
// Poll's stage-then-slot order is a property of the hash seeds, not a
// contract. Every permutation of one poll yields an identical
// pendingConfig, bit for bit.
func TestConfigForOrderIndependent(t *testing.T) {
	const bps, buffer = 1e9, 8 << 20
	eng := sim.NewEngine()
	q := New(eng, bps, buffer, DefaultParams(bps, buffer, sim.Duration(50e6)))
	interval := (q.params.DT * sim.Time(q.params.P)).Seconds()
	txDelta := uint64(bps / 8 * interval) // saturated port

	// Two dozen elephants spread 2 MB apart across the DeltaFlow (1 %)
	// boundary below the largest — so which of them are ⊤ depends on
	// every entry being weighed — with odd low bits that a float sum
	// would round differently by order were it not exact, and a crowd
	// of mice below them.
	rng := sim.NewRand(5)
	var entries []hhcache.Entry
	for i := 0; i < 200; i++ {
		b := int64(1000 + rng.Intn(50_000))
		if i < 24 {
			b = 3_000_000_000 - int64(i)*2_000_000 + int64(rng.Intn(1<<12))*977
		}
		key := packet.FlowKey{Src: packet.NodeID(i), Dst: 9999, SrcPort: uint16(i), DstPort: 80, Proto: packet.ProtoTCP}
		entries = append(entries, hhcache.Entry{Flow: key, Bytes: b})
	}
	// configFor refills a bank the Qdisc owns, so the reference is a
	// copy, not the bank the permutations below overwrite.
	want := q.configFor(txDelta, entries).clone()
	if !want.saturated || len(want.topSet) < 2 || len(want.topSet) >= 24 {
		t.Fatalf("fixture must saturate with a ⊤ set cut inside the elephants: saturated=%v |⊤|=%d", want.saturated, len(want.topSet))
	}
	for trial := 0; trial < 50; trial++ {
		perm := append([]hhcache.Entry(nil), entries...)
		for i := len(perm) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		if got := q.configFor(txDelta, perm); !reflect.DeepEqual(got, want) {
			t.Fatalf("permutation %d changed the config:\n got %+v\nwant %+v", trial, got, want)
		}
	}
}

// clone returns a deep copy of cfg: its maps are fresh.
func (cfg *pendingConfig) clone() *pendingConfig {
	c := *cfg
	c.topSet = maps.Clone(cfg.topSet)
	c.flowRates = maps.Clone(cfg.flowRates)
	return &c
}

// TestConfigForKeepsLiveTopSet: the control plane's recompute fills the
// shadow bank while the data plane matches against the live ⊤ set, so a
// recompute must never write to the installed set (Fig. 6). Round after
// round of recompute-then-apply with changing ⊤ sets, the live set's
// contents survive every recompute untouched, each result lands in a map
// other than the live one, and once both banks have grown a round
// allocates nothing.
func TestConfigForKeepsLiveTopSet(t *testing.T) {
	const bps, buffer = 1e9, 8 << 20
	eng := sim.NewEngine()
	q := New(eng, bps, buffer, DefaultParams(bps, buffer, sim.Duration(50e6)))
	interval := (q.params.DT * sim.Time(q.params.P)).Seconds()
	txDelta := uint64(bps / 8 * interval) // saturated port

	rng := sim.NewRand(11)
	entries := make([]hhcache.Entry, 64)
	fill := func() {
		// Every round a different crowd of equal elephants is ⊤.
		for i := range entries {
			entries[i] = hhcache.Entry{
				Flow:  packet.FlowKey{Src: packet.NodeID(rng.Intn(256)), Dst: 9999, SrcPort: uint16(i), DstPort: 80, Proto: packet.ProtoTCP},
				Bytes: int64(1000 + rng.Intn(1000)),
			}
			if rng.Intn(4) == 0 {
				entries[i].Bytes = 1_000_000
			}
		}
	}
	for i := 0; i < 50; i++ {
		fill()
		live := maps.Clone(q.topSet)
		cfg := q.configFor(txDelta, entries)
		if !maps.Equal(q.topSet, live) {
			t.Fatalf("round %d: a recompute changed the live ⊤ set: %d flows, was %d", i, len(q.topSet), len(live))
		}
		if reflect.ValueOf(cfg.topSet).UnsafePointer() == reflect.ValueOf(q.topSet).UnsafePointer() {
			t.Fatalf("round %d: a recompute filled the live ⊤ set's map", i)
		}
		q.apply(cfg)
		if !maps.Equal(q.topSet, cfg.topSet) || len(q.topSet) == 0 {
			t.Fatalf("round %d: apply installed %d ⊤ flows, want the recomputed %d", i, len(q.topSet), len(cfg.topSet))
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		fill()
		q.apply(q.configFor(txDelta, entries))
	})
	if allocs != 0 {
		t.Fatalf("a recompute-and-apply round allocates %.1f objects, want 0", allocs)
	}
}
