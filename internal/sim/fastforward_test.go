package sim

import (
	"fmt"
	"testing"
)

// TestPinnedPlacementInvisible: with fast-forward never invoked, arming a
// timer pinned instead of unpinned must not change the dispatch order —
// pinned timers skip the wheel, but wheel placement is invisible to the
// (at, schedAt, seq) event stream.
func TestPinnedPlacementInvisible(t *testing.T) {
	run := func(pin bool) []string {
		eng := NewEngine()
		var log []string
		r := &timerRecorder{log: &log, eng: eng}
		// A mix of deadlines spanning heap-imminent and wheel-parked
		// ranges, including exact ties.
		deadlines := []Time{5, 1 << 20, 5, 1 << 20, 300, 1 << 15, 1 << 20}
		timers := make([]Timer, len(deadlines))
		for i, at := range deadlines {
			if pin && i%2 == 0 {
				eng.ArmPinnedTimerAt(&timers[i], at, r, i)
			} else {
				eng.ArmTimer(&timers[i], at, r, i)
			}
		}
		eng.RunAll()
		return log
	}
	plain, pinned := run(false), run(true)
	if fmt.Sprint(plain) != fmt.Sprint(pinned) {
		t.Fatalf("pinned placement changed dispatch order:\nplain  %v\npinned %v", plain, pinned)
	}
}

func TestNextPinnedTime(t *testing.T) {
	eng := NewEngine()
	r := &timerRecorder{log: new([]string), eng: eng}
	if got := eng.NextPinnedTime(); got != MaxTime {
		t.Fatalf("empty engine NextPinnedTime = %v", got)
	}
	var a, b, c Timer
	eng.ArmTimer(&a, 50, r, 0) // unpinned: invisible
	eng.ArmPinnedTimerAt(&b, 200, r, 1)
	eng.ArmPinnedTimerAt(&c, 120, r, 2)
	if got := eng.NextPinnedTime(); got != 120 {
		t.Fatalf("NextPinnedTime = %v, want 120", got)
	}
	// Re-arming a pinned timer unpinned clears the mark.
	eng.ArmTimer(&c, 120, r, 2)
	if got := eng.NextPinnedTime(); got != 200 {
		t.Fatalf("after unpinning: NextPinnedTime = %v, want 200", got)
	}
	if eng.StopTimer(&b); eng.NextPinnedTime() != MaxTime {
		t.Fatalf("after stop: NextPinnedTime = %v, want MaxTime", eng.NextPinnedTime())
	}
}

// TestFastForwardShiftsEverything: heap events, wheel timers, and
// overflow timers all move by the skip delta; the pinned bound fires at
// its absolute deadline.
func TestFastForwardShiftsEverything(t *testing.T) {
	eng := NewEngine()
	var log []string
	r := &timerRecorder{log: &log, eng: eng}

	const skip = Time(1e9)
	var heapT, wheelT, overflowT, pinnedT Timer
	eng.ArmTimer(&heapT, 100, r, 0)             // imminent: heap-resident
	eng.ArmTimer(&wheelT, 1<<21, r, 1)          // wheel-parked
	eng.ArmTimer(&overflowT, Time(1)<<45, r, 2) // beyond the wheel window
	eng.ArmPinnedTimerAt(&pinnedT, skip, r, 3)  // exactly at the skip target: legal
	eng.AtCall(7, Func(func() { log = append(log, fmt.Sprintf("closure@%d", eng.Now())) }), nil)

	eng.FastForward(skip)
	if eng.Now() != skip {
		t.Fatalf("clock = %v, want %v", eng.Now(), skip)
	}
	eng.RunAll()
	want := fmt.Sprintf("[3@%d closure@%d 0@%d 1@%d 2@%d]",
		skip, skip+7, skip+100, skip+Time(1<<21), skip+Time(1)<<45)
	if fmt.Sprint(log) != want {
		t.Fatalf("log = %v\nwant  %v", log, want)
	}
}

// TestFastForwardPreservesRelativeOrder: a deterministic pseudo-random
// mix of timers and events fired with and without a mid-stream skip must
// produce the same sequence of (id, time-since-start-minus-skips).
func TestFastForwardPreservesRelativeOrder(t *testing.T) {
	build := func(eng *Engine, log *[]string) {
		r := &timerRecorder{log: log, eng: eng}
		rng := NewRand(42)
		timers := make([]Timer, 64)
		for i := range timers {
			at := Time(rng.Intn(1 << 24))
			eng.ArmTimer(&timers[i], at, r, i)
		}
		eng.RunAll()
	}
	var plain []string
	build(NewEngine(), &plain)

	var skipped []string
	eng := NewEngine()
	r := &timerRecorder{log: &skipped, eng: eng}
	rng := NewRand(42)
	timers := make([]Timer, 64)
	for i := range timers {
		at := Time(rng.Intn(1 << 24))
		eng.ArmTimer(&timers[i], at, r, i)
	}
	const skip = Time(5e8)
	eng.FastForward(skip)
	eng.RunAll()
	// Un-shift the recorded fire times for comparison.
	for i, s := range skipped {
		var id int
		var at Time
		fmt.Sscanf(s, "%d@%d", &id, &at)
		skipped[i] = fmt.Sprintf("%d@%d", id, at-skip)
	}
	if fmt.Sprint(plain) != fmt.Sprint(skipped) {
		t.Fatalf("skip perturbed relative order:\nplain   %v\nskipped %v", plain, skipped)
	}
}

func TestFastForwardPanicsAcrossPinned(t *testing.T) {
	eng := NewEngine()
	r := &timerRecorder{log: new([]string), eng: eng}
	var tm Timer
	eng.ArmPinnedTimerAt(&tm, 500, r, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("FastForward across a pinned event must panic")
		}
	}()
	eng.FastForward(501)
}

// TestLocalEqualsNowWithoutSkips: on a run that never calls FastForward the
// two readings of time are the same number at every dispatch.
func TestLocalEqualsNowWithoutSkips(t *testing.T) {
	eng := NewEngine()
	n := 0
	check := handlerFunc(func(any) {
		n++
		if eng.Local() != eng.Now() {
			t.Fatalf("Local = %v, Now = %v with no skip", eng.Local(), eng.Now())
		}
	})
	var near, far Timer
	eng.ArmTimer(&near, 100, check, nil)
	eng.ArmTimer(&far, 1<<30, check, nil)
	eng.AtCall(7, check, nil)
	eng.Run(Time(1) << 31)
	if n != 3 || eng.Local() != eng.Now() || eng.Now() != Time(1)<<31 {
		t.Fatalf("fired %d, Local = %v, Now = %v", n, eng.Local(), eng.Now())
	}
}

// TestLocalStandsStillDuringSkip: FastForward(d) advances Now by d and
// leaves Local alone, so a stamp taken from Local before a skip measures
// the same elapsed time after it — the time spent dispatching, whatever
// was skipped in between.
func TestLocalStandsStillDuringSkip(t *testing.T) {
	eng := NewEngine()
	eng.Run(300)
	stamp := eng.Local()
	var tm Timer
	var firedNow, firedLocal Time
	eng.ArmTimer(&tm, 50, handlerFunc(func(any) { firedNow, firedLocal = eng.Now(), eng.Local() }), nil)

	for i, d := range []Time{1e9, 0, 7} {
		now, local := eng.Now(), eng.Local()
		eng.FastForward(d)
		if eng.Now() != now+d || eng.Local() != local {
			t.Fatalf("skip %d of %v: Now %v -> %v, Local %v -> %v", i, d, now, eng.Now(), local, eng.Local())
		}
	}
	eng.RunAll()
	if want := Time(300 + 1e9 + 7 + 50); firedNow != want {
		t.Fatalf("timer fired at Now = %v, want %v", firedNow, want)
	}
	if firedLocal-stamp != 50 {
		t.Fatalf("stamp measures %v elapsed after the skips, want the 50 that were dispatched", firedLocal-stamp)
	}
}

// TestFastForwardArmedTimerReentry: the armed-but-skipped timer edge
// case. A wheel-parked timer carried across a skip must remain fully
// operational: stoppable in O(1), re-armable, and it fires at the shifted
// deadline if left alone.
func TestFastForwardArmedTimerReentry(t *testing.T) {
	eng := NewEngine()
	var log []string
	r := &timerRecorder{log: &log, eng: eng}

	var rto, stopped Timer
	eng.ArmTimer(&rto, 1<<20, r, 0)
	eng.ArmTimer(&stopped, 1<<21, r, 1)
	eng.FastForward(3e5)

	if !rto.Pending() || !stopped.Pending() {
		t.Fatal("armed timers must stay pending across a skip")
	}
	if !eng.StopTimer(&stopped) {
		t.Fatal("StopTimer after a skip must still unlink")
	}
	// Re-arm the survivor to a nearer deadline, as an RTO handler would.
	eng.ArmTimer(&rto, 10, r, 2)
	eng.RunAll()
	want := fmt.Sprintf("[2@%d]", Time(3e5)+10)
	if fmt.Sprint(log) != want {
		t.Fatalf("log = %v, want %v", log, want)
	}
}

func TestFastForwardZeroAndHorizon(t *testing.T) {
	eng := NewEngine()
	eng.FastForward(0) // no-op
	if eng.Now() != 0 {
		t.Fatalf("zero skip moved the clock to %v", eng.Now())
	}
	done := false
	eng.AtCall(10, Func(func() {
		if eng.Horizon() != 1000 {
			t.Errorf("Horizon inside Run = %v, want 1000", eng.Horizon())
		}
		done = true
	}), nil)
	eng.Run(1000)
	if !done {
		t.Fatal("event did not fire")
	}
}
