package core

import (
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
	want := q.configFor(txDelta, entries)
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
