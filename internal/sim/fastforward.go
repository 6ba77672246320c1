package sim

// Fast-forward: the engine-level primitive behind the hybrid fluid/packet
// mode (internal/fluid). A skip is a freeze-and-shift: the clock jumps
// forward by d and every *non-pinned* pending event — heap events, stream
// entries, wheel timers, overflow timers — moves with it, keeping its
// distance to the clock and its dispatch order (a uniform shift of
// (at, schedAt) preserves the (at, schedAt, seq) total order among shifted
// events). The frozen packet-level state thus re-enters at the far side of
// the skip exactly as it left: in-flight transmissions, RTOs, pacing gaps,
// delayed ACKs all resume with identical relative timing. Pinned events are
// the epoch boundaries: they keep their absolute deadlines, bound every skip
// (FastForward panics rather than hop one), and fire on schedule.
//
// The event stream is the only state that is translated, and this file is
// the only code that translates it. Everything else follows the rule in the
// package comment — store Local(), schedule and report on Now(), arm timers
// with relative delays. A skip of d adds d to Now() and to the total Local()
// subtracts, so Local() reads the same on both sides of it: for a stamp s
// taken from Local(), Local()−s counts the time that was dispatched since
// and none that was skipped.

// NextPinnedTime returns the earliest deadline among pending pinned
// events, or MaxTime when none is pinned. Pinned timers never park in the
// timing wheel (placeTimer) and stream entries are never pinned, so a heap
// scan sees every one of them.
func (e *Engine) NextPinnedTime() Time {
	t := MaxTime
	for _, ev := range e.queue {
		if ev.pinned && ev.at < t {
			t = ev.at
		}
	}
	return t
}

// Horizon returns the `until` of the Run call currently in progress
// (MaxTime under RunAll). Fast-forward controllers cap skips at it so a
// windowed RunUntil driver never observes a clock past its window.
func (e *Engine) Horizon() Time { return e.horizon }

// FastForward advances Now() by d in one step, shifting every non-pinned
// pending event with it and leaving Local() where it was. It must be called
// from within a dispatching handler (or between Run windows).
//
// Panics if a pinned event lies strictly inside the skipped interval: the
// caller must bound d by NextPinnedTime()-Now(). A pinned deadline exactly
// at the skip target is legal and fires immediately after the skip.
func (e *Engine) FastForward(d Time) {
	if d < 0 {
		panic("sim: FastForward with negative delta")
	}
	if d == 0 {
		return
	}
	target := e.now + d

	// Heap events: shift everything non-pinned, verify everything pinned.
	for _, ev := range e.queue {
		if ev.pinned {
			if ev.at < target {
				panic("sim: FastForward across a pinned event")
			}
			continue
		}
		ev.at += d
		ev.schedAt += d
		if ev.kind == kindStream {
			// The residency is the head entry; the rest sit behind it.
			ev.arg.(*Stream).shift(d)
		}
	}
	// The relative order of shifted events is preserved, but pinned events
	// keep their absolute keys, so the mixed heap must be rebuilt.
	e.heapInit()

	// Wheel and overflow timers: unchain every parked timer, shift it,
	// and re-place it against the (unchanged, monotone) slot cursors.
	w := &e.wheel
	if w.count > 0 {
		var flushed *Timer
		for l := 0; l < wheelLevels; l++ {
			if w.occ[l] == 0 {
				continue
			}
			for idx := 0; idx < wheelSlots; idx++ {
				for t := w.slot[l][idx]; t != nil; {
					nx := t.next
					t.next, t.prev = flushed, nil
					flushed = t
					t = nx
				}
				w.slot[l][idx] = nil
			}
			w.occ[l] = 0
		}
		for t := w.overflow; t != nil; {
			nx := t.next
			t.next, t.prev = flushed, nil
			flushed = t
			t = nx
		}
		w.overflow = nil
		w.overflowMin = MaxTime
		w.count = 0
		for flushed != nil {
			t := flushed
			flushed = t.next
			t.next = nil
			t.ev.at += d
			t.ev.schedAt += d
			t.ev.tstate = timerIdle
			e.placeTimer(t)
		}
		w.earliest = w.scanEarliest()
	}

	e.now = target
	// The event now dispatching moves with the clock, so a key that had
	// dispatched before the skip still has after it.
	e.curSched += d
	e.skipped += d
}

// heapInit restores the heap invariant over the whole queue after a bulk
// key mutation (FastForward). O(n).
func (e *Engine) heapInit() {
	q := e.queue
	for i := (len(q) - 2) >> 2; i >= 0; i-- {
		e.siftDown(i, q[i])
	}
}
