// Package mapiter_bad reproduces the order-sensitive map-iteration shapes
// the analyzer must reject — including the historical FQ-CoDel
// drop-victim bug (PR 1): pick-the-fattest-flow over a map range with
// ties falling to whatever entry the runtime happened to visit last.
package mapiter_bad

import (
	"fmt"
	"io"

	"sim"
)

type flowKey struct{ src, dst int }

type fqFlow struct {
	bytes   int
	backlog int
}

// The PR-1 bug: equal backlogs are the common case with homogeneous
// flows, and without a deterministic tie-break the victim — and therefore
// the whole packet future — depends on map iteration order.
func fattestFlow(flows map[flowKey]*fqFlow) *fqFlow {
	var fat *fqFlow
	for _, fl := range flows { // want `map range selects into fat in iteration order`
		if fat == nil || fl.bytes > fat.bytes {
			fat = fl
		}
	}
	return fat
}

// Scheduling from a map range embeds the visit order in event sequence
// numbers: two runs produce different tie-breaks at equal timestamps.
func kickAll(eng *sim.Engine, waiters map[flowKey]func()) {
	for _, w := range waiters { // want `map range schedules events via ScheduleCall in iteration order`
		eng.ScheduleCall(sim.Time(1), sim.Func(w), nil)
	}
}

// The absolute-time form draws a sequence number like the relative one.
func armAll(eng *sim.Engine, deadlines map[flowKey]sim.Time) {
	for _, d := range deadlines { // want `map range schedules events via AtCall in iteration order`
		eng.AtCall(d, sim.Func(func() {}), nil)
	}
}

// Pushing onto streams from a map range draws one sequence number per
// push, so which wire's packet wins an equal-instant tie follows visit
// order.
func pushWires(eng *sim.Engine, wires map[flowKey]*sim.Stream) {
	for _, w := range wires { // want `map range schedules events via StreamCall in iteration order`
		eng.StreamCall(w, eng.Now()+1, eng.Now(), sim.Func(func() {}), nil)
	}
}

// Drawing a sequence number for a completion to arm later puts visit order
// into the key as surely as scheduling does.
func drawCompletionSeqs(eng *sim.Engine, seqs map[flowKey]uint64) {
	for k := range seqs { // want `map range schedules events via DrawSeq in iteration order`
		seqs[k] = eng.DrawSeq()
	}
}

// Arming timers from a map range is scheduling too: each ArmTimer
// consumes a sequence number, so visit order leaks into equal-instant
// tie-breaking exactly as ScheduleCall's does.
func armTimers(eng *sim.Engine, timers map[flowKey]*sim.Timer, h sim.Handler) {
	for _, t := range timers { // want `map range schedules events via ArmTimer in iteration order`
		eng.ArmTimer(t, sim.Time(1), h, nil)
	}
}

// A pinned arm takes its sequence number the same way — control-plane
// cadences (rotation, sampling, flow starts) armed per map entry tie-break
// in visit order — in both its relative and its absolute form.
func armPinned(eng *sim.Engine, timers map[flowKey]*sim.Timer, h sim.Handler) {
	for _, t := range timers { // want `map range schedules events via ArmPinnedTimer in iteration order`
		eng.ArmPinnedTimer(t, sim.Time(1), h, nil)
	}
}

func armPinnedAt(eng *sim.Engine, starts map[flowKey]sim.Time, h sim.Handler) {
	for _, at := range starts { // want `map range schedules events via ArmPinnedTimerAt in iteration order`
		eng.ArmPinnedTimerAt(new(sim.Timer), at, h, nil)
	}
}

// Report lines written in map order differ between runs byte-for-byte.
func dumpCounts(w io.Writer, counts map[flowKey]int) {
	for k, n := range counts { // want `map range writes output via fmt\.Fprintf in iteration order`
		fmt.Fprintf(w, "%v %d\n", k, n)
	}
}

// Accumulating into an outer slice with no sort downstream leaves the
// caller holding a randomly-ordered result.
func keys(m map[flowKey]int) []flowKey {
	var out []flowKey
	for k := range m { // want `map range accumulates into out in iteration order without a deterministic sort`
		out = append(out, k)
	}
	return out
}

// Float accumulation is order-sensitive in the last ulp; summing rates in
// map order makes reports flap across runs.
func totalRate(rates map[flowKey]float64) float64 {
	var total float64
	for _, r := range rates { // want `map range folds into total \(float64\) in iteration order`
		total += r
	}
	return total
}

// kick is an innocent-looking helper whose body schedules; calling it
// from a map range is the same bug as calling ScheduleCall inline, one hop
// removed.
func kick(eng *sim.Engine, w func()) {
	eng.ScheduleCall(sim.Time(1), sim.Func(w), nil)
}

func kickAllViaHelper(eng *sim.Engine, waiters map[flowKey]func()) {
	for _, w := range waiters { // want `map range schedules events via kick → ScheduleCall in iteration order`
		kick(eng, w)
	}
}

// The hazard can hide arbitrarily deep: wake → kick → ScheduleCall. The
// analyzer follows same-package helper chains and names the path.
func wake(eng *sim.Engine, w func()) {
	kick(eng, w)
}

func kickAllTwoDeep(eng *sim.Engine, waiters map[flowKey]func()) {
	for _, w := range waiters { // want `map range schedules events via wake → kick → ScheduleCall in iteration order`
		wake(eng, w)
	}
}

// Methods are helpers too: a reporter whose emit writes output.
type reporter struct{ w io.Writer }

func (r *reporter) emit(k flowKey, n int) {
	fmt.Fprintf(r.w, "%v %d\n", k, n)
}

func dumpViaMethod(r *reporter, counts map[flowKey]int) {
	for k, n := range counts { // want `map range writes output via emit → fmt\.Fprintf in iteration order`
		r.emit(k, n)
	}
}

// A replay-shaped flow record: the timer is embedded in the arena record,
// not heap-allocated per arm.
type replayFlow struct {
	timer sim.Timer
	gap   sim.Time
}

// Ranging over a map-of-flows index and arming each record's embedded
// timer leaks visit order into the wheel's equal-instant tie-breaking —
// the million-flow version of armTimers above.
func paceAll(eng *sim.Engine, flows map[flowKey]*replayFlow, h sim.Handler) {
	for _, fl := range flows { // want `map range schedules events via ArmTimer in iteration order`
		eng.ArmTimer(&fl.timer, fl.gap, h, fl)
	}
}

// A function-literal helper appending to a captured slice is the
// accumulation hazard one hop down: the closure writes `out` in whatever
// order the loop visits.
func keysViaClosure(m map[flowKey]int) []flowKey {
	var out []flowKey
	add := func(k flowKey) { out = append(out, k) }
	for k := range m { // want `map range accumulates into out via add → append in iteration order without a deterministic sort`
		add(k)
	}
	return out
}

// A named helper folding a winner into package state is the selection bug
// hidden behind a call.
var bestFlow *fqFlow

func consider(fl *fqFlow) {
	if bestFlow == nil || fl.bytes > bestFlow.bytes {
		bestFlow = fl
	}
}

func pickViaHelper(flows map[flowKey]*fqFlow) *fqFlow {
	for _, fl := range flows { // want `map range selects into bestFlow via consider → assignment in iteration order`
		consider(fl)
	}
	return bestFlow
}
