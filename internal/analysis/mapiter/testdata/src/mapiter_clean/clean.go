// Package mapiter_clean holds the order-free map-iteration idioms the
// analyzer must accept.
package mapiter_clean

import (
	"sort"

	"sim"
)

type flowKey struct{ src, dst int }

type state struct {
	rate  float64
	bytes float64
}

// Collect-then-sort restores a total order before anyone observes it.
func sortedKeys(m map[flowKey]int) []flowKey {
	out := make([]flowKey, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].src != out[j].src {
			return out[i].src < out[j].src
		}
		return out[i].dst < out[j].dst
	})
	return out
}

// Per-key writes into another map are independent of visit order.
func rekey(rates map[flowKey]float64, old map[flowKey]*state) map[flowKey]*state {
	next := make(map[flowKey]*state, len(rates))
	for f, r := range rates {
		if st, ok := old[f]; ok {
			st.rate = r
			next[f] = st
		} else {
			next[f] = &state{rate: r}
		}
	}
	return next
}

// Mutating each entry through the value pointer is per-entry independent.
func decay(states map[flowKey]*state, dt float64) {
	for _, st := range states {
		st.bytes -= st.rate * dt
		if st.bytes < 0 {
			st.bytes = 0
		}
	}
}

// Integer accumulation is commutative and exact: order cannot matter.
func totalBytes(counts map[flowKey]int64) int64 {
	var total int64
	for _, n := range counts {
		total += n
	}
	return total
}

// Stopping timers in a map range is fine: StopTimer consumes no sequence
// number (unlike ArmTimer), so visit order leaves no trace in the event
// stream.
func stopAll(eng *sim.Engine, timers map[flowKey]*sim.Timer) {
	for _, t := range timers {
		eng.StopTimer(t)
	}
}

// Arming owned events under keys drawn beforehand is fine: ScheduleOwned
// draws no sequence number, so the heap orders them by their keys whatever
// order the map visits them in.
func armCompletions(eng *sim.Engine, evs map[flowKey]*sim.Event, seqs map[flowKey]uint64, h sim.Handler) {
	for k, ev := range evs {
		eng.ScheduleOwned(ev, sim.Time(10), sim.Time(1), seqs[k], h, nil)
	}
}

// Helpers whose bodies are order-free must not be flagged when called
// from a map range — stopping a timer consumes no sequence number.
func stop(eng *sim.Engine, t *sim.Timer) {
	eng.StopTimer(t)
}

func stopAllViaHelper(eng *sim.Engine, timers map[flowKey]*sim.Timer) {
	for _, t := range timers {
		stop(eng, t)
	}
}

// Mutually recursive helpers with no hazard anywhere on the cycle: the
// scanner's memoization must terminate and classify both as clean.
func evenDecay(st *state, n int) {
	if n > 0 {
		oddDecay(st, n-1)
	}
}

func oddDecay(st *state, n int) {
	st.bytes *= 0.5
	if n > 0 {
		evenDecay(st, n-1)
	}
}

func decayAll(states map[flowKey]*state) {
	for _, st := range states {
		evenDecay(st, 4)
	}
}

// Deleting while ranging is sanctioned Go and per-key independent.
func prune(counts map[flowKey]int64) {
	for k, n := range counts {
		if n == 0 {
			delete(counts, k)
		}
	}
}

// Captured-slice accumulation through a closure is forgiven when the
// caller restores a total order after the loop, exactly like the inline
// collect-then-sort idiom.
func keysViaClosureSorted(m map[flowKey]int) []flowKey {
	var out []flowKey
	add := func(k flowKey) { out = append(out, k) }
	for k := range m {
		add(k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].src != out[j].src {
			return out[i].src < out[j].src
		}
		return out[i].dst < out[j].dst
	})
	return out
}

// An integer counter bumped through a closure is commutative; no order
// leaks into the result.
func countViaHelper(m map[flowKey]int) int {
	n := 0
	bump := func() { n++ }
	for range m {
		bump()
	}
	return n
}

// A closure fed only loop-invariant values produces the same contents
// regardless of visit order.
func padTo(m map[flowKey]int) []string {
	var out []string
	add := func(s string) { out = append(out, s) }
	for range m {
		add("pad")
	}
	return out
}
