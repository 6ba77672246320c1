package experiments

import (
	"runtime"
	"sync"
	"testing"

	"cebinae/internal/pooltest"
	"cebinae/internal/sim"
)

// row11 is Table 2's row-11 cell (32 NewReno + 8 Cubic, 1 Gbps, 5 ms)
// under Cebinae at a 2 s horizon.
func row11() Scenario {
	s := Table2Scenario(Table2Rows()[10], Cebinae, Quick)
	s.Duration = sim.Duration(2e9)
	return s
}

// TestRecycledRunIsIdentical: a run whose packet slabs, stream blocks and
// scoreboard blocks were written by another run is byte-identical to one
// that allocated them all. Table 2's row-22 cell ({Vegas:128, BBR:1},
// 1 Gbps, 10 ms) under Cebinae runs from empty pools at a 2 s horizon;
// the row-11 cell under FQ then runs on its recycled chunks and hands them
// back dirty from its own losses, and the row-22 cell runs again on those:
// the same report and the same event count. The cells are chosen so that
// stale chunk contents would show: a packet slab handed out unzeroed puts
// stale SACK state on first-use ACKs, and a scoreboard block handed out
// unzeroed keeps a stale retransmission flag that skips RTT samples the
// Vegas and BBR flows read.
func TestRecycledRunIsIdentical(t *testing.T) {
	pooltest.Hold(t)
	cell := func(row int, kind QdiscKind) Scenario {
		s := Table2Scenario(Table2Rows()[row-1], kind, Quick)
		s.Duration = sim.Duration(2e9)
		return s
	}
	fresh := Run(cell(22, Cebinae))
	Run(cell(11, FQ))
	reused := Run(cell(22, Cebinae))
	if got, want := reused.Report(), fresh.Report(); got != want || reused.Events != fresh.Events {
		t.Fatalf("a run on recycled chunks differs from a fresh one:\nfresh:  %s\nreused: %s", want, got)
	}
}

// TestRecycledRunAllocatesLess pins the reuse itself: with the collector
// off, so the pools keep everything a run hands back, a second run of the
// row-11 cell allocates at most 0.65 of the first's bytes. It reads 0.571
// (0.82 → 0.47 MB, the same on every run; the rest is set-up: nodes,
// devices, rings, connections), so the bound leaves 0.08 of margin; with
// nothing recycled it reads 1.000.
func TestRecycledRunAllocatesLess(t *testing.T) {
	pooltest.Hold(t)
	pooltest.SkipIfPutsDrop(t)
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	Run(row11())
	runtime.ReadMemStats(&m1)
	Run(row11())
	runtime.ReadMemStats(&m2)
	first, second := m1.TotalAlloc-m0.TotalAlloc, m2.TotalAlloc-m1.TotalAlloc
	ratio := float64(second) / float64(first)
	t.Logf("first run %.2f MB, second %.2f MB: %.3f", float64(first)/1e6, float64(second)/1e6, ratio)
	if ratio > 0.65 {
		t.Fatalf("a second identical run allocated %.3f of the first's bytes, want ≤ 0.65", ratio)
	}
}

// TestConcurrentRunsShareChunkPools: runs on concurrent goroutines, as the
// fleet's workers run cells, draw from and hand back to the same process
// pools, and each reads what a run alone reads. Run it under -race.
func TestConcurrentRunsShareChunkPools(t *testing.T) {
	t.Cleanup(pooltest.Drain)
	want := Run(row11()).Report()
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2; i++ {
				if got := Run(row11()).Report(); got != want {
					t.Errorf("a run beside another differs from one alone:\nalone:  %s\nbeside: %s", want, got)
				}
			}
		}()
	}
	wg.Wait()
}
