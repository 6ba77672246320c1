package sim

import "math/bits"

// Timer is a caller-embedded, cancellable, reschedulable timer — the one
// cancellable scheduling surface (see the package comment). It exists for
// the RTO pattern: timers that are re-armed or stopped far more often than
// they fire (retransmission, pacing, delayed ACK, control loops). The
// zero Timer is ready to use; embed one per logical timer in the owning
// struct and arm it with Engine.ArmTimer. Arming, stopping, and re-arming
// never allocate.
//
// Behind the API the engine parks far-future timers in a hierarchical
// timing wheel (Varghese–Lauck), where stop and re-arm are O(1) list
// unlinks instead of heap removals. As the clock approaches a timer's
// deadline its wheel slot is flushed into the main event heap, so firing
// order is governed by exactly the same (time, schedule time, seq)
// comparison as every other event: a Timer armed by the n-th scheduling
// call fires precisely where the n-th ScheduleCall would have —
// wheel placement is invisible to the event stream.
type Timer struct {
	// ev is the armed occurrence: its key, its handler and payload, its
	// pinned mark (pinned timers never park in the wheel — see
	// placeTimer), and the timer's placement in ev.tstate / ev.tlevel.
	// While the deadline is imminent ev sits on the heap as an owned
	// event, so Run dispatches it like any other.
	ev Event

	// next/prev link the timer into its wheel bucket or the overflow list.
	next, prev *Timer
}

// Timer states.
const (
	timerIdle uint8 = iota
	timerInHeap
	timerInWheel
	timerInOverflow
)

// Pending reports whether the timer is armed and has not yet fired.
func (t *Timer) Pending() bool { return t.ev.tstate != timerIdle }

// Deadline returns the virtual time the timer is (or was last) armed for.
func (t *Timer) Deadline() Time { return t.ev.at }

// ArmTimer arms t to run h.OnEvent(arg) after delay d, replacing any
// pending deadline (re-arming in place is the expected idiom; no Stop is
// needed first). A negative delay fires at the current instant.
func (e *Engine) ArmTimer(t *Timer, d Time, h Handler, arg any) {
	if d < 0 {
		d = 0
	}
	e.armTimerAt(t, e.now+d, h, arg, false)
}

// ArmPinnedTimer arms t like ArmTimer but marks the deadline pinned: a
// hard epoch boundary that FastForward never shifts and never skips
// across (see fastforward.go). Use it for control-plane cadences that
// must fire at their absolute instant even while the data plane is being
// fluid-advanced: Cebinae rotation/configure, monitor sampling, traffic
// phase transitions, flow starts. A later regular ArmTimer on the same
// Timer clears the mark. With fast-forward never invoked, a pinned timer
// fires exactly where the unpinned arm would have: placement (wheel vs
// heap) is invisible to the (at, schedAt, seq) dispatch order.
func (e *Engine) ArmPinnedTimer(t *Timer, d Time, h Handler, arg any) {
	if d < 0 {
		d = 0
	}
	e.armTimerAt(t, e.now+d, h, arg, true)
}

// ArmPinnedTimerAt is ArmPinnedTimer for an absolute virtual time at
// (clamped to now).
func (e *Engine) ArmPinnedTimerAt(t *Timer, at Time, h Handler, arg any) {
	e.armTimerAt(t, at, h, arg, true)
}

func (e *Engine) armTimerAt(t *Timer, at Time, h Handler, arg any, pinned bool) {
	if t.ev.tstate != timerIdle {
		e.StopTimer(t)
	}
	if at < e.now {
		at = e.now
	}
	t.ev.at = at
	t.ev.schedAt = e.now
	t.ev.seq = e.seq
	t.ev.kind = kindOwned
	t.ev.pinned = pinned
	t.ev.handler = h
	t.ev.arg = arg
	e.seq++
	e.placeTimer(t)
}

// StopTimer cancels a pending timer. It reports whether the timer was
// pending; stopping an idle timer is a no-op. A wheel-resident timer —
// the common case for timers stopped long before their deadline — is
// unlinked in O(1).
func (e *Engine) StopTimer(t *Timer) bool {
	switch t.ev.tstate {
	case timerInHeap:
		if t.ev.pos != 0 {
			e.heapRemove(int(t.ev.pos) - 1)
		}
	case timerInWheel:
		w := &e.wheel
		l := t.ev.tlevel
		shift := wheelTickBits + uint(l)*wheelSlotBits
		idx := (int64(t.ev.at) >> shift) & (wheelSlots - 1)
		e.unlinkTimer(t, &w.slot[l][idx])
		if w.slot[l][idx] == nil {
			w.occ[l] &^= 1 << uint(idx)
		}
		w.count--
	case timerInOverflow:
		e.unlinkTimer(t, &e.wheel.overflow)
		if e.wheel.overflow == nil {
			e.wheel.overflowMin = MaxTime
		}
		e.wheel.count--
	default:
		return false
	}
	t.ev.tstate = timerIdle
	t.ev.arg = nil
	return true
}

// unlinkTimer removes t from the doubly-linked bucket whose head is
// *head.
func (e *Engine) unlinkTimer(t *Timer, head **Timer) {
	if t.prev != nil {
		t.prev.next = t.next
	} else {
		*head = t.next
	}
	if t.next != nil {
		t.next.prev = t.prev
	}
	t.next, t.prev = nil, nil
}

// ---------------------------------------------------------------------------
// Hierarchical timing wheel.
//
// Six levels of 64 slots each; the level-0 slot spans 2^14 ns (≈16 µs) and
// each level is 64× coarser than the previous, so the wheel addresses
// ≈13 days of virtual time (beyond that, timers wait on an overflow list).
// Slots are doubly-linked intrusive lists with a per-level occupancy
// bitmap, so advancing the wheel skips empty slots with bit arithmetic
// instead of scanning.
//
// Slot indices are absolute: slot s at level l covers virtual times
// [s<<shift, (s+1)<<shift) with shift = 14 + 6l, and next[l] is the first
// index not yet flushed. The engine flushes every slot whose start lies at
// or before the time of the event it is about to dispatch; flushed timers
// either cascade into finer levels or — once imminent — enter the main
// event heap carrying the (at, seq) assigned when they were armed, which
// is what makes wheel scheduling byte-identical to heap scheduling.
// ---------------------------------------------------------------------------

const (
	wheelLevels   = 6
	wheelSlotBits = 6
	wheelSlots    = 1 << wheelSlotBits
	wheelTickBits = 14
	wheelTopShift = wheelTickBits + (wheelLevels-1)*wheelSlotBits
)

type timerWheel struct {
	// next[l] is the absolute index of the first unflushed slot at level l.
	next [wheelLevels]int64
	// occ[l] has bit (s & 63) set iff slot s's bucket is non-empty.
	occ  [wheelLevels]uint64
	slot [wheelLevels][wheelSlots]*Timer

	// overflow holds timers beyond the top level's window; overflowMin is
	// a lower bound on their earliest deadline.
	overflow    *Timer
	overflowMin Time

	// count is the number of parked timers (wheel + overflow).
	count int
	// earliest is a lower bound on the start of the first occupied slot
	// (MaxTime when the wheel is empty); the engine's per-dispatch fast
	// path is a single comparison against it.
	earliest Time
}

// placeTimer parks an armed timer at the finest level whose window can
// address its deadline, or pushes it straight onto the heap when the
// deadline is imminent (inside an already-flushed slot).
func (e *Engine) placeTimer(t *Timer) {
	if t.ev.pinned {
		// Pinned deadlines stay on the heap so NextPinnedTime can see
		// every one of them with a single heap scan; the wheel would hide
		// them behind a slot-start lower bound. Dispatch order is
		// unchanged — wheel placement is invisible to the event stream.
		t.ev.tstate = timerInHeap
		e.heapPush(&t.ev)
		return
	}
	w := &e.wheel
	at := int64(t.ev.at)
	for l := 0; l < wheelLevels; l++ {
		shift := wheelTickBits + uint(l)*wheelSlotBits
		s := at >> shift
		if s < w.next[l] {
			break // slot already flushed: imminent, heap it
		}
		if s < w.next[l]+wheelSlots {
			idx := s & (wheelSlots - 1)
			head := &w.slot[l][idx]
			t.next = *head
			t.prev = nil
			if *head != nil {
				(*head).prev = t
			}
			*head = t
			w.occ[l] |= 1 << uint(idx)
			t.ev.tstate = timerInWheel
			t.ev.tlevel = uint8(l)
			w.count++
			if start := Time(s << shift); start < w.earliest {
				w.earliest = start
			}
			return
		}
	}
	if at>>wheelTopShift >= w.next[wheelLevels-1]+wheelSlots {
		// Beyond the top level's window (≈13 days out): overflow list.
		t.next = w.overflow
		t.prev = nil
		if w.overflow != nil {
			w.overflow.prev = t
		}
		w.overflow = t
		t.ev.tstate = timerInOverflow
		w.count++
		if t.ev.at < w.overflowMin {
			w.overflowMin = t.ev.at
		}
		if t.ev.at < w.earliest {
			w.earliest = t.ev.at
		}
		return
	}
	t.ev.tstate = timerInHeap
	e.heapPush(&t.ev)
}

// advanceWheel flushes every slot whose start lies at or before h.
// Flushed timers re-place themselves: into a finer level, or into the
// event heap once imminent. On return every parked timer's slot starts
// strictly after h, so the heap top is authoritative for all events up to
// and including h.
func (e *Engine) advanceWheel(h Time) {
	w := &e.wheel
	var flushed *Timer
	for l := 0; l < wheelLevels; l++ {
		shift := wheelTickBits + uint(l)*wheelSlotBits
		target := int64(h) >> shift
		if w.next[l] > target {
			continue
		}
		if w.occ[l] != 0 {
			span := target - w.next[l]
			mask := ^uint64(0)
			if span < wheelSlots-1 {
				run := ^uint64(0) >> uint(63-span)
				mask = bits.RotateLeft64(run, int(w.next[l]&(wheelSlots-1)))
			}
			m := w.occ[l] & mask
			w.occ[l] &^= m
			for m != 0 {
				idx := bits.TrailingZeros64(m)
				m &= m - 1
				for t := w.slot[l][idx]; t != nil; {
					nx := t.next
					t.next, t.prev = flushed, nil
					flushed = t
					t = nx
				}
				w.slot[l][idx] = nil
			}
		}
		w.next[l] = target + 1
	}
	// The top-level cursor may have advanced into the overflow list's
	// range: pull newly addressable timers back in.
	if w.overflow != nil && int64(w.overflowMin)>>wheelTopShift < w.next[wheelLevels-1]+wheelSlots {
		rest, restMin := (*Timer)(nil), MaxTime
		for t := w.overflow; t != nil; {
			nx := t.next
			if int64(t.ev.at)>>wheelTopShift < w.next[wheelLevels-1]+wheelSlots {
				t.next, t.prev = flushed, nil
				flushed = t
			} else {
				t.next, t.prev = rest, nil
				if rest != nil {
					rest.prev = t
				}
				if t.ev.at < restMin {
					restMin = t.ev.at
				}
				rest = t
			}
			t = nx
		}
		w.overflow, w.overflowMin = rest, restMin
	}
	for flushed != nil {
		t := flushed
		flushed = t.next
		t.next = nil
		w.count--
		t.ev.tstate = timerIdle
		e.placeTimer(t)
	}
	w.earliest = w.scanEarliest()
}

// scanEarliest recomputes the earliest lower bound from the occupancy
// bitmaps and the overflow list.
func (w *timerWheel) scanEarliest() Time {
	earliest := MaxTime
	for l := 0; l < wheelLevels; l++ {
		if w.occ[l] == 0 {
			continue
		}
		shift := wheelTickBits + uint(l)*wheelSlotBits
		// Occupied slots all lie in [next, next+63]; rotate the bitmap so
		// bit 0 is the cursor and the lowest set bit is the distance to
		// the first occupied slot.
		rot := bits.RotateLeft64(w.occ[l], -int(w.next[l]&(wheelSlots-1)))
		s := w.next[l] + int64(bits.TrailingZeros64(rot))
		if start := Time(s << shift); start < earliest {
			earliest = start
		}
	}
	if w.overflow != nil && w.overflowMin < earliest {
		earliest = w.overflowMin
	}
	return earliest
}
