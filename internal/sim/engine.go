// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock with nanosecond resolution and a
// priority queue of scheduled events. Events scheduled for the same instant
// fire in scheduling order (FIFO tie-breaking), which makes runs fully
// deterministic for a fixed seed and workload.
//
// Every event is a Handler plus a payload, dispatched in the order of its
// key (at, schedAt, seq): its time, the time it was scheduled, and a
// sequence number drawn from one per-engine counter when it was scheduled.
// Four scheduling surfaces share that one totally-ordered sequence. They
// differ in who owns the memory behind a pending occurrence:
//
//   - ScheduleCall / AtCall return nothing; the event structs behind them
//     are recycled on a per-engine free list, so steady-state scheduling is
//     allocation-free. A pooled event cannot be cancelled.
//   - ScheduleOwned is for strictly sequential occurrences (a device's
//     transmit completions): the caller embeds one Event and reuses it for
//     every occurrence. It cannot be re-armed while pending. It is the one
//     surface that draws no seq: the caller passes the whole key, with a
//     seq drawn earlier, so an occurrence decided at one instant and armed
//     at a later one still sorts where scheduling it when decided would
//     have.
//   - StreamCall appends to a caller-owned Stream: many occurrences
//     pending at once, each with its own handler and payload, pushed in
//     dispatch order (packets in propagation on every link of one delay and
//     serialisation time, cross-engine arrivals from one cut link). Only
//     the head occupies the event heap; see stream.go. It returns the seq
//     it drew.
//   - ArmTimer / ArmPinnedTimer / ArmPinnedTimerAt / StopTimer drive a
//     caller-embedded Timer: the one cancellable, reschedulable-in-place
//     surface, for deadlines that are usually re-armed or stopped before
//     they fire (RTO, pacing, delayed ACK, control loops). Far-future
//     timers park in a hierarchical timing wheel where stop/re-arm is
//     O(1); see timer.go.
//
// Choosing a surface: fire-and-forget, including self-perpetuating chains
// with a payload → ScheduleCall; one occurrence at a time owned by one
// struct → ScheduleOwned; in-flight payloads whose keys are sorted by
// construction → StreamCall; anything that needs cancellation or re-arming →
// a Timer.
// Cold-path and test code that has a plain func and no struct to hang a
// handler on wraps it in Func.
//
// An occurrence need not be scheduled to be ordered. A caller that keeps a
// key without scheduling it — a transmitter keeps its packet's completion
// (end of serialisation, start of serialisation, the seq its arrival drew)
// and arms it only once a packet waits behind it — asks Dispatched whether
// that key sorts before the event now dispatching, which is exactly whether
// it would have fired by now; DrawSeq draws a seq for such a key when no
// push draws one.
//
// The engine reads time two ways. Now() is the simulation clock: events are
// scheduled on it and results are reported on it. Local() is Now() minus all
// the time FastForward has skipped: it stands still during a skip and equals
// Now() on a run that never skips. The rule for everything built on the
// engine, stated here once: store Local(), schedule and report on Now(), arm
// timers with relative delays. A component that keeps a stamp and later
// subtracts it from the clock (an RTT sample, a pacing release time, a queue
// sojourn, a CoDel deadline) takes both readings from Local(), so a skip is
// invisible to it and nothing outside this package has to translate state
// when the clock jumps; see fastforward.go.
package sim

import (
	"fmt"
	"math"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation.
type Time int64

// MaxTime is the largest representable virtual time.
const MaxTime = Time(math.MaxInt64)

// Duration converts a standard library duration to the engine's resolution.
func Duration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// Seconds returns the time as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Std converts a virtual time offset into a standard library duration.
func (t Time) Std() time.Duration { return time.Duration(t) }

func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

// Handler receives typed fast-path events. Implementations are typically
// small named types over the receiver struct (so one struct can register
// several distinct handlers without closures).
type Handler interface {
	// OnEvent is invoked when the event fires, with the payload it was
	// scheduled with.
	OnEvent(arg any)
}

// Func adapts a plain function to Handler; the payload is ignored.
type Func func()

// OnEvent implements Handler.
func (f Func) OnEvent(any) { f() }

// eventKind discriminates how an event's memory is managed and dispatched.
type eventKind uint8

const (
	// kindPooled events carry a Handler, expose no handle (so they cannot be
	// cancelled), and return to the engine's free list the moment they fire.
	kindPooled eventKind = iota
	// kindOwned events are embedded in a caller's struct and rescheduled
	// in place: by ScheduleOwned, or as a Timer's heap residency
	// (timer.go). The engine never frees or recycles them.
	kindOwned
	// kindStream events are the heap residency of a Stream (stream.go),
	// carrying the head entry's key and handler; arg back-points to the
	// Stream.
	kindStream
)

// Event is one pending occurrence on the engine's heap. Callers only ever
// hold one they own: the zero Event is an idle caller-owned event ready for
// ScheduleOwned.
type Event struct {
	at Time
	// schedAt is the virtual time at which the event was scheduled, or
	// would have been: the middle key of the dispatch order (see
	// eventLess). For pooled events and timers it equals Now() at
	// scheduling time, which is non-decreasing in seq, so among them it
	// never perturbs the order. A wire arrival pushed as its packet's
	// serialisation starts carries the completion instant it would have
	// been pushed at, and an entry injected by a conservative-parallel
	// runner the virtual time the *source* engine emitted it, which slots
	// each among same-instant events where scheduling it then would have.
	schedAt Time
	seq     uint64
	// pos is the event's heap position plus one; 0 means not queued
	// (fired, stopped, or never scheduled). The +1 offset makes the
	// zero Event value valid as an idle ScheduleOwned event.
	pos  int32
	kind eventKind
	// pinned marks a control-plane event whose deadline is an absolute
	// commitment: FastForward refuses to skip across it and never shifts
	// it. Pinned timers also bypass the timing wheel (fastforward.go), so
	// every pinned deadline is visible on the heap for NextPinnedTime.
	pinned bool
	// tstate and tlevel are a Timer's placement (timerIdle, timerInHeap,
	// …) and its wheel level while it parks in the wheel; they fill the
	// bytes the fields above leave over and stay zero on every other
	// event.
	tstate uint8
	tlevel uint8

	handler Handler
	arg     any
}

// At returns the virtual time at which the event is (or was) scheduled.
func (e *Event) At() Time { return e.at }

// Engine is a discrete-event scheduler. It is not safe for concurrent use;
// simulations are single-goroutine by design.
type Engine struct {
	now Time
	seq uint64
	// curSched and curSeq complete the key of the event now dispatching,
	// whose time is now; Dispatched compares against it. Once Run has
	// settled the clock at its horizon they read (now, the next seq): every
	// key at or before the clock drawn so far has dispatched.
	curSched Time
	curSeq   uint64
	queue    []*Event // 4-ary min-heap ordered by (at, schedAt, seq)
	free     []*Event // recycled kindPooled events
	wheel    timerWheel
	// freeBlocks is the free list of Stream entry blocks, shared by every
	// stream on the engine; backlog counts stream entries queued behind
	// their stream's head (the head is counted by its heap residency).
	freeBlocks *streamBlock
	backlog    int
	stopped    bool
	// horizon is the `until` of the innermost Run in progress (MaxTime for
	// RunAll); FastForward callers use it to cap a skip at the horizon.
	horizon Time
	// skipped is the total span FastForward has jumped over; Local()
	// subtracts it from now.
	skipped Time
	// Processed counts events dispatched since construction.
	Processed uint64
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	e := &Engine{}
	e.wheel.earliest = MaxTime
	e.wheel.overflowMin = MaxTime
	return e
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Local returns the virtual time spent outside FastForward skips: Now()
// minus every skipped span. It is monotone, does not tick during a skip, and
// equals Now() on an engine that never skips. Stamps that are later
// subtracted from the clock are taken from, and compared against, Local().
func (e *Engine) Local() Time { return e.now - e.skipped }

// ScheduleCall runs h.OnEvent(arg) after delay d (relative to the current
// virtual time; a negative delay is treated as zero). No handle is returned
// and the event struct is drawn from (and returned to) a per-engine free
// list, so a steady stream of calls performs no allocation.
func (e *Engine) ScheduleCall(d Time, h Handler, arg any) {
	if d < 0 {
		d = 0
	}
	e.AtCall(e.now+d, h, arg)
}

// AtCall runs h.OnEvent(arg) at absolute virtual time t (clamped to now),
// with the same pooling as ScheduleCall.
func (e *Engine) AtCall(t Time, h Handler, arg any) {
	if t < e.now {
		t = e.now
	}
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &Event{}
	}
	ev.at = t
	ev.schedAt = e.now
	ev.seq = e.seq
	ev.kind = kindPooled
	ev.handler = h
	ev.arg = arg
	e.seq++
	e.heapPush(ev)
}

// ScheduleOwned schedules ev — a caller-owned Event, typically embedded in
// a long-lived struct — to run h.OnEvent(arg) under the explicit key
// (at, schedAt, seq). The seq must already have been drawn (StreamCall
// returns the one it draws, DrawSeq draws one on its own), so a caller can
// arm an occurrence later than it was decided and still have it sort
// exactly where scheduling it at the time would have. Reusing one Event
// for a strictly sequential series of occurrences (a device's transmit
// completions) costs no allocation at all. Panics if ev is still pending,
// if schedAt > at, if seq has not been drawn, or if the key has already
// dispatched.
func (e *Engine) ScheduleOwned(ev *Event, at, schedAt Time, seq uint64, h Handler, arg any) {
	if ev.pos != 0 {
		panic("sim: ScheduleOwned on an event that is still pending")
	}
	if schedAt > at || seq >= e.seq || e.Dispatched(at, schedAt, seq) {
		panic("sim: ScheduleOwned with a key that is undrawn or already dispatched")
	}
	ev.at = at
	ev.schedAt = schedAt
	ev.seq = seq
	ev.kind = kindOwned
	ev.handler = h
	ev.arg = arg
	e.heapPush(ev)
}

// DrawSeq draws the next sequence number without scheduling anything: the
// tie-break an occurrence would carry had it been scheduled now, kept by a
// caller that may arm the occurrence later with ScheduleOwned.
func (e *Engine) DrawSeq() uint64 {
	s := e.seq
	e.seq++
	return s
}

// recycle clears a pooled event's references and returns it to the free
// list.
func (e *Engine) recycle(ev *Event) {
	ev.handler = nil
	ev.arg = nil
	e.free = append(e.free, ev)
}

// Stop makes Run return after the currently dispatching event completes.
func (e *Engine) Stop() { e.stopped = true }

// Pending returns the number of events waiting to fire, including timers
// parked in the timing wheel and stream entries queued behind their head.
func (e *Engine) Pending() int { return len(e.queue) + e.wheel.count + e.backlog }

// NextEventTime returns a lower bound on the time of the engine's next
// pending event, or MaxTime when nothing is pending. The heap top is
// exact; wheel-resident timers contribute the start of their earliest
// occupied slot, which is at or before any parked deadline — so the
// returned value never overshoots a real event. Conservative-parallel
// runners use it to bound how soon a quiescent engine could emit
// anything new.
func (e *Engine) NextEventTime() Time {
	t := MaxTime
	if len(e.queue) > 0 {
		t = e.queue[0].at
	}
	if e.wheel.count > 0 && e.wheel.earliest < t {
		t = e.wheel.earliest
	}
	return t
}

// Run dispatches events in time order until the queue empties, the clock
// would pass `until`, or Stop is called. It returns the virtual time at
// which it stopped. Events scheduled exactly at `until` do fire. A
// horizon already in the past is a no-op: the clock never moves
// backward.
func (e *Engine) Run(until Time) Time {
	if until < e.now {
		return e.now
	}
	e.stopped = false
	e.horizon = until
	for !e.stopped {
		// The heap top is only authoritative once every wheel slot that
		// could hold an earlier (or same-instant, earlier-seq) timer has
		// been flushed into the heap. The fast path is one comparison
		// against the wheel's earliest-slot lower bound.
		if e.wheel.count > 0 {
			h := until
			if len(e.queue) > 0 && e.queue[0].at < h {
				h = e.queue[0].at
			}
			if e.wheel.earliest <= h {
				// Flush only the earliest slot(s): staying lazy keeps
				// later timers in the wheel where cancellation is O(1).
				e.advanceWheel(e.wheel.earliest)
				continue
			}
		}
		if len(e.queue) == 0 {
			break
		}
		next := e.queue[0]
		if next.at > until {
			e.settle(until)
			return e.now
		}
		e.now = next.at
		e.curSched, e.curSeq = next.schedAt, next.seq
		e.Processed++
		if next.kind == kindStream {
			e.dispatchStream(next)
			continue
		}
		e.heapPopMin()
		h, arg := next.handler, next.arg
		if next.kind == kindPooled {
			// Recycle before dispatch so a handler that reschedules
			// (the common self-perpetuating pattern) reuses this very
			// event.
			e.recycle(next)
		} else {
			// An owned event drops its payload reference until it is
			// rescheduled; a timer is marked idle before dispatch so
			// its handler can re-arm it in place (the
			// self-perpetuating tick pattern).
			next.arg = nil
			next.tstate = timerIdle
		}
		h.OnEvent(arg)
	}
	// Settle the clock at the horizon when the queue drained — except for
	// RunAll's open horizon, where the clock stays at the last event.
	if !e.stopped && until != MaxTime {
		e.settle(until)
	}
	return e.now
}

// settle parks the clock at a horizon every event up to which has
// dispatched: Dispatched then reports every key at or before it as fired,
// except those drawn from here on.
func (e *Engine) settle(until Time) {
	e.now = until
	e.curSched, e.curSeq = until, e.seq
}

// Dispatched reports whether an event keyed (at, schedAt, seq) sorts before
// the event now dispatching: had it been scheduled, it would already have
// fired. Between Run calls, after Run has settled the clock at its horizon,
// so has every key at or before the clock drawn until then. A component that
// computes an occurrence's key without scheduling it (a transmit
// completion nobody waits for) asks this to learn whether the occurrence
// is behind it.
func (e *Engine) Dispatched(at, schedAt Time, seq uint64) bool {
	if at != e.now {
		return at < e.now
	}
	if schedAt != e.curSched {
		return schedAt < e.curSched
	}
	return seq < e.curSeq
}

// RunAll dispatches every event until the queue drains or Stop is called.
func (e *Engine) RunAll() Time { return e.Run(MaxTime) }

// RunUntil is the windowed-stepping entry point used by conservative
// parallel runners (internal/shard): it advances the clock to exactly t,
// dispatching every event with at <= t, and may be called repeatedly with
// increasing horizons. Between calls the engine is quiescent — events
// injected from outside (cross-shard arrivals via StreamCall) are merged
// into the queue and dispatched in (time, emission time, seq) order
// exactly as if they had been scheduled locally by a single merged
// engine, which is what makes a sharded run reproduce the single-engine
// event stream.
func (e *Engine) RunUntil(t Time) Time { return e.Run(t) }

// ---------------------------------------------------------------------------
// Inlined 4-ary min-heap over (at, schedAt, seq).
//
// A 4-ary layout halves the tree depth of a binary heap, and inlining it
// over []*Event (instead of container/heap's interface dispatch and `any`
// boxing) keeps push/pop monomorphic and allocation-free. FIFO tie-breaking
// for same-instant events falls out of comparing the monotonically
// increasing seq; the schedAt middle key is a no-op among events scheduled
// when they were decided (it is non-decreasing in seq) and exists so wire
// arrivals pushed ahead of their completion and cross-engine injections
// (StreamCall) sort by the instant they stand for first — see the Event
// field comment.
// ---------------------------------------------------------------------------

func eventLess(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.schedAt != b.schedAt {
		return a.schedAt < b.schedAt
	}
	return a.seq < b.seq
}

// heapPush appends ev and sifts it up to its position.
func (e *Engine) heapPush(ev *Event) {
	e.queue = append(e.queue, ev)
	e.siftUp(len(e.queue)-1, ev)
}

// heapPopMin removes the root (callers read e.queue[0] first). The popped
// event's pos is zeroed before removal so callbacks observe it as fired.
func (e *Engine) heapPopMin() {
	q := e.queue
	n := len(q) - 1
	q[0].pos = 0
	last := q[n]
	q[n] = nil
	e.queue = q[:n]
	if n > 0 {
		e.siftDown(0, last)
	}
}

// heapRemove removes the event at heap index i (used by StopTimer).
func (e *Engine) heapRemove(i int) {
	q := e.queue
	n := len(q) - 1
	q[i].pos = 0
	last := q[n]
	q[n] = nil
	e.queue = q[:n]
	if i == n {
		return
	}
	e.siftDown(i, last)
	if int(last.pos)-1 == i {
		e.siftUp(i, last)
	}
}

// siftUp places ev at index i, moving it towards the root while it sorts
// before its parent. ev itself is written exactly once, at its final slot.
func (e *Engine) siftUp(i int, ev *Event) {
	q := e.queue
	for i > 0 {
		parent := (i - 1) >> 2
		p := q[parent]
		if !eventLess(ev, p) {
			break
		}
		q[i] = p
		p.pos = int32(i + 1)
		i = parent
	}
	q[i] = ev
	ev.pos = int32(i + 1)
}

// siftDown places ev at index i, moving it towards the leaves while any of
// its (up to four) children sorts before it.
func (e *Engine) siftDown(i int, ev *Event) {
	q := e.queue
	n := len(q)
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		min := first
		minEv := q[first]
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if eventLess(q[c], minEv) {
				min, minEv = c, q[c]
			}
		}
		if !eventLess(minEv, ev) {
			break
		}
		q[i] = minEv
		minEv.pos = int32(i + 1)
		i = min
	}
	q[i] = ev
	ev.pos = int32(i + 1)
}
