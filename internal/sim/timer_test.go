package sim

import (
	"fmt"
	"strings"
	"testing"
)

// timerRecorder appends its arg (an int id) to a shared log.
type timerRecorder struct {
	log *[]string
	eng *Engine
}

func (r *timerRecorder) OnEvent(arg any) {
	*r.log = append(*r.log, fmt.Sprintf("%d@%d", arg, r.eng.Now()))
}

func TestTimerFireAndReuse(t *testing.T) {
	eng := NewEngine()
	var log []string
	r := &timerRecorder{log: &log, eng: eng}
	var tm Timer
	if tm.Pending() {
		t.Fatal("zero Timer must be idle")
	}
	eng.ArmTimer(&tm, 10, r, 1)
	if !tm.Pending() || tm.Deadline() != 10 {
		t.Fatalf("armed timer: pending=%v deadline=%v", tm.Pending(), tm.Deadline())
	}
	eng.RunAll()
	if !tm.Pending() == false && len(log) != 1 {
		t.Fatalf("log=%v", log)
	}
	eng.ArmTimer(&tm, 5, r, 2) // reuse after firing
	eng.RunAll()
	if fmt.Sprint(log) != "[1@10 2@15]" {
		t.Fatalf("log=%v", log)
	}
}

func TestTimerStopAndRearm(t *testing.T) {
	eng := NewEngine()
	var log []string
	r := &timerRecorder{log: &log, eng: eng}
	var tm Timer
	eng.ArmTimer(&tm, 10, r, 1)
	if !eng.StopTimer(&tm) {
		t.Fatal("StopTimer on a pending timer must report true")
	}
	if eng.StopTimer(&tm) {
		t.Fatal("StopTimer on an idle timer must report false")
	}
	eng.RunAll()
	if len(log) != 0 {
		t.Fatalf("stopped timer fired: %v", log)
	}
	// Re-arm in place without an explicit stop: only the last deadline
	// fires.
	eng.ArmTimer(&tm, 10, r, 2)
	eng.ArmTimer(&tm, 20, r, 3)
	eng.RunAll()
	if fmt.Sprint(log) != "[3@20]" {
		t.Fatalf("log=%v", log)
	}
}

// TestTimerSeqTieBreak pins the determinism contract: a timer armed by the
// n-th scheduling call fires exactly where the n-th ScheduleCall would
// have, including at equal instants.
func TestTimerSeqTieBreak(t *testing.T) {
	eng := NewEngine()
	var log []string
	r := &timerRecorder{log: &log, eng: eng}
	var early, late Timer
	eng.ArmTimer(&early, 100, r, 1)                                               // seq 0
	eng.ScheduleCall(100, Func(func() { log = append(log, "closure@100") }), nil) // seq 1
	eng.ArmTimer(&late, 100, r, 2)                                                // seq 2
	eng.ScheduleCall(100, r, 3)                                                   // seq 3
	eng.RunAll()
	want := "[1@100 closure@100 2@100 3@100]"
	if fmt.Sprint(log) != want {
		t.Fatalf("log=%v want %v", log, want)
	}
}

// TestTimerRearmInHandler exercises the self-perpetuating tick pattern.
type tickHandler struct {
	eng  *Engine
	tm   *Timer
	n    int
	seen []Time
}

func (h *tickHandler) OnEvent(any) {
	h.seen = append(h.seen, h.eng.Now())
	h.n--
	if h.n > 0 {
		h.eng.ArmTimer(h.tm, 7, h, nil)
	}
}

func TestTimerRearmInHandler(t *testing.T) {
	eng := NewEngine()
	var tm Timer
	h := &tickHandler{eng: eng, tm: &tm, n: 4}
	eng.ArmTimer(&tm, 7, h, nil)
	eng.RunAll()
	if len(h.seen) != 4 || h.seen[0] != 7 || h.seen[1] != 14 || h.seen[2] != 21 || h.seen[3] != 28 {
		t.Fatalf("ticks=%v", h.seen)
	}
	if eng.Pending() != 0 {
		t.Fatalf("pending=%d", eng.Pending())
	}
}

// TestTimerWheelLevels arms timers across every wheel level (and the
// overflow list) and checks they all fire, in order, at their exact
// deadlines.
func TestTimerWheelLevels(t *testing.T) {
	eng := NewEngine()
	var log []string
	r := &timerRecorder{log: &log, eng: eng}
	delays := []Time{
		1,     // below level 0: straight to heap
		40e3,  // level 0 (~16 µs slots)
		3e6,   // level 1
		150e6, // level 2
		9e9,   // level 3
		500e9, // level 4
		40e12, // level 5
		5e15,  // beyond the wheel: overflow list (~58 days)
	}
	timers := make([]Timer, len(delays))
	for i, d := range delays {
		eng.ArmTimer(&timers[i], d, r, i)
	}
	if eng.Pending() != len(delays) {
		t.Fatalf("pending=%d want %d", eng.Pending(), len(delays))
	}
	eng.RunAll()
	want := "[0@1 1@40000 2@3000000 3@150000000 4@9000000000 5@500000000000 6@40000000000000 7@5000000000000000]"
	if fmt.Sprint(log) != want {
		t.Fatalf("log=%v", log)
	}
}

// TestTimerStopAcrossLevels stops one parked timer per wheel level and
// verifies none fire and the wheel empties.
func TestTimerStopAcrossLevels(t *testing.T) {
	eng := NewEngine()
	var log []string
	r := &timerRecorder{log: &log, eng: eng}
	delays := []Time{1, 40e3, 3e6, 150e6, 9e9, 500e9, 40e12, 5e15}
	timers := make([]Timer, len(delays))
	for i, d := range delays {
		eng.ArmTimer(&timers[i], d, r, i)
	}
	for i := range timers {
		if !eng.StopTimer(&timers[i]) {
			t.Fatalf("timer %d not pending", i)
		}
	}
	if eng.Pending() != 0 {
		t.Fatalf("pending=%d after stopping all", eng.Pending())
	}
	eng.RunAll()
	if len(log) != 0 {
		t.Fatalf("stopped timers fired: %v", log)
	}
}

// TestTimerRunHorizon checks Run(until) semantics with parked timers: the
// clock settles at the horizon and the timer fires on a later Run.
func TestTimerRunHorizon(t *testing.T) {
	eng := NewEngine()
	var log []string
	r := &timerRecorder{log: &log, eng: eng}
	var tm Timer
	eng.ArmTimer(&tm, Time(300e6), r, 1)
	if got := eng.Run(Time(100e6)); got != Time(100e6) {
		t.Fatalf("Run returned %v", got)
	}
	if len(log) != 0 || !tm.Pending() {
		t.Fatalf("timer fired early: %v pending=%v", log, tm.Pending())
	}
	eng.Run(Time(400e6))
	if fmt.Sprint(log) != "[1@300000000]" {
		t.Fatalf("log=%v", log)
	}
}

// TestTimerArmPast clamps to the current instant, like AtCall.
func TestTimerArmPast(t *testing.T) {
	eng := NewEngine()
	var log []string
	r := &timerRecorder{log: &log, eng: eng}
	var tm Timer
	eng.ScheduleCall(100, Func(func() {
		eng.ArmPinnedTimerAt(&tm, 5, r, 1) // in the past
	}), nil)
	eng.RunAll()
	if fmt.Sprint(log) != "[1@100]" {
		t.Fatalf("log=%v", log)
	}
}

// ---------------------------------------------------------------------------
// Differential fuzz: an identical randomized script — timer arm/stop/re-arm,
// pushes onto k FIFO streams (one of them shared by several handlers),
// pooled events, a pinned deadline, mid-run FastForwards — is applied to two
// engines. One goes through the embedded surfaces (Timer/wheel, Stream); the
// reference keeps every timer on the heap (armOnHeap) and gives every stream
// entry a heap residency of its own, with the same key and handler. Both
// must dispatch the identical event sequence. Both consume one seq per
// operation, so equal-instant tie-breaking must match exactly.
// ---------------------------------------------------------------------------

const (
	diffStreams = 7
	// Stream diffShared is one wire shared by every link of one delay: each
	// push names one of diffReceivers handlers of its own, beside the six
	// single-handler streams' one each.
	diffShared    = diffStreams - 1
	diffReceivers = 4
)

// armOnHeap arms t like ArmTimer but places it straight on the heap whatever
// its deadline — the placement a pinned arm gets — and then clears the pinned
// mark, so FastForward still shifts it like any regular timer. Stopping it
// goes through heapRemove at whatever heap position it has reached.
func armOnHeap(e *Engine, t *Timer, d Time, h Handler) {
	e.ArmPinnedTimer(t, d, h, nil)
	t.ev.pinned = false
}

type diffDriver struct {
	embedded bool
	eng      *Engine
	rng      *Rand
	timers   []Timer
	fired    *[]string
	handlers []diffFire
	opsLeft  int

	// Stream i is a constant-delay wire (i%3 == 0, the shared one included),
	// a cut link whose pushes carry an emission stamp in the engine's past
	// (1), or a jitter queue whose random release times clamp to the
	// previous one (2). The streams are zero values: nothing sets one up.
	streams    [diffStreams]Stream
	jitterTail [diffStreams]Time
	recv       [diffShared + diffReceivers]diffStreamFire
	entries    int

	pinned Timer
}

type diffFire struct {
	d  *diffDriver
	id int
}

func (f *diffFire) OnEvent(any) {
	*f.d.fired = append(*f.d.fired, fmt.Sprintf("%d@%d", f.id, f.d.eng.Now()))
}

// diffEntry is a stream payload carrying its own deadline as a Local
// reading, which no skip moves — so a FastForward that shifts an entry's key
// twice, or not at all, shows up when it fires.
type diffEntry struct {
	id      int
	localAt Time
}

// diffStreamFire is one receiver of stream entries; the record names it, so
// an entry dispatched to another entry's handler shows.
type diffStreamFire struct {
	d  *diffDriver
	id int
}

func (f *diffStreamFire) OnEvent(arg any) {
	d := f.d
	ent := arg.(*diffEntry)
	rec := fmt.Sprintf("s%d/%d@%d", ent.id, f.id, d.eng.Now())
	if ent.localAt != d.eng.Local() {
		rec += fmt.Sprintf("(stamp %d)", ent.localAt)
	}
	*d.fired = append(*d.fired, rec)
}

type diffPinnedFire diffDriver

func (f *diffPinnedFire) OnEvent(any) {
	d := (*diffDriver)(f)
	*d.fired = append(*d.fired, fmt.Sprintf("pin@%d", d.eng.Now()))
}

// push appends one entry to stream i with that stream's key discipline.
func (d *diffDriver) push(i int) {
	now := d.eng.Now()
	at, from := now, now
	h := &d.recv[i]
	if i == diffShared {
		h = &d.recv[diffShared+d.rng.Intn(diffReceivers)]
	}
	switch i % 3 {
	case 0:
		at = now + Time(3)<<uint(5*i)
		// A pooled event with the same deadline and emission time as the
		// entry that follows it: only seq separates the two.
		d.eng.AtCall(at, &d.handlers[i%len(d.handlers)], nil)
	case 1:
		from = now - 7
		at = from + Time(11)<<uint(4*i)
	default:
		at = now + Time(d.rng.Intn(1<<12))
		if at < d.jitterTail[i] {
			at = d.jitterTail[i]
		}
		d.jitterTail[i] = at
	}
	ent := &diffEntry{id: d.entries, localAt: d.eng.Local() + at - now}
	d.entries++
	switch {
	case d.embedded:
		d.eng.StreamCall(&d.streams[i], at, from, h, ent)
	case from == now:
		d.eng.AtCall(at, h, ent)
	default:
		// The pooled surface cannot carry a stamp; a stream of one entry
		// is a per-entry heap residency with the same key.
		d.eng.StreamCall(new(Stream), at, from, h, ent)
	}
}

// step is the op-script event: at each step the driver applies one random
// operation, then reschedules itself. Both engines share the rng
// *sequence* (fresh generator per run, same seed).
func (d *diffDriver) OnEvent(any) {
	if d.opsLeft <= 0 {
		return
	}
	d.opsLeft--
	slot := d.rng.Intn(len(d.timers))
	op := d.rng.Intn(9)
	// Delays spread across wheel levels: from sub-slot to level-4 range.
	exp := d.rng.Intn(36)
	delay := Time(1 + d.rng.Intn(1<<uint(exp)))
	switch {
	case op <= 1: // arm / re-arm
		if d.embedded {
			d.eng.ArmTimer(&d.timers[slot], delay, &d.handlers[slot], nil)
		} else {
			armOnHeap(d.eng, &d.timers[slot], delay, &d.handlers[slot])
		}
	case op == 2: // stop
		d.eng.StopTimer(&d.timers[slot])
	case op <= 5: // a burst onto one stream
		i := d.rng.Intn(diffStreams)
		n := 1 + d.rng.Intn(3)
		if d.rng.Intn(8) == 0 {
			n += 2 * streamBlockLen // span entry blocks
		}
		for ; n > 0; n-- {
			d.push(i)
		}
	case op == 6: // (re-)arm the pinned deadline (heap-resident either way)
		d.eng.ArmPinnedTimer(&d.pinned, delay, (*diffPinnedFire)(d), nil)
	case op == 7: // skip the clock, as far as the pinned deadline allows
		skip := delay
		if bound := d.eng.NextPinnedTime() - d.eng.Now(); skip > bound {
			skip = bound
		}
		d.eng.FastForward(skip)
		for i := range d.jitterTail {
			d.jitterTail[i] += skip
		}
	default: // let time pass (no-op: the step advance below is the pass)
	}
	d.eng.ScheduleCall(Time(1+d.rng.Intn(1<<uint(d.rng.Intn(32)))), d, nil)
}

func runTimerDiff(seed uint64, embedded bool, steps, slots int) []string {
	eng := NewEngine()
	var fired []string
	d := &diffDriver{
		embedded: embedded,
		eng:      eng,
		rng:      NewRand(seed),
		timers:   make([]Timer, slots),
		fired:    &fired,
		opsLeft:  steps,
	}
	d.handlers = make([]diffFire, slots)
	for i := range d.handlers {
		d.handlers[i] = diffFire{d: d, id: i}
	}
	for i := range d.recv {
		d.recv[i] = diffStreamFire{d: d, id: i}
	}
	eng.ScheduleCall(0, d, nil)
	eng.RunAll()
	if n := eng.Pending(); n != 0 {
		fired = append(fired, fmt.Sprintf("%d still pending", n))
	}
	return fired
}

func TestTimerHeapDifferential(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		heap := runTimerDiff(seed, false, 400, 8)
		wheel := runTimerDiff(seed, true, 400, 8)
		if fmt.Sprint(heap) != fmt.Sprint(wheel) {
			t.Fatalf("seed %d: embedded and reference schedules diverge\nreference: %v\nembedded:  %v", seed, heap, wheel)
		}
		if strings.Contains(fmt.Sprint(wheel), "stamp") || strings.Contains(fmt.Sprint(wheel), "pending") {
			t.Fatalf("seed %d: a payload fired with a stale stamp or the engine did not drain: %v", seed, wheel)
		}
		if seed == 1 {
			// A timer, a stream entry, the pinned deadline, and every
			// receiver of the shared stream.
			for _, kind := range []string{" 1@", " s1/", " pin@", "/6@", "/7@", "/8@", "/9@"} {
				if !strings.Contains(fmt.Sprint(wheel), kind) {
					t.Fatalf("differential script fired no %q event; widen the op mix", kind)
				}
			}
		}
	}
}

func FuzzTimerHeapEquivalence(f *testing.F) {
	f.Add(uint64(7), uint16(300))
	f.Add(uint64(42), uint16(800))
	f.Fuzz(func(t *testing.T, seed uint64, steps16 uint16) {
		steps := int(steps16)%1000 + 10
		heap := runTimerDiff(seed, false, steps, 6)
		wheel := runTimerDiff(seed, true, steps, 6)
		if fmt.Sprint(heap) != fmt.Sprint(wheel) {
			t.Fatalf("seed %d steps %d: diverged\nreference: %v\nembedded:  %v", seed, steps, heap, wheel)
		}
	})
}

// TestTimerAllocs pins the allocation-free contract: arm, stop, re-arm,
// and fire cycles on an embedded timer allocate nothing.
func TestTimerAllocs(t *testing.T) {
	eng := NewEngine()
	var log []string
	r := &timerRecorder{log: &log, eng: eng}
	var tm Timer
	h := Handler(r)
	// Warm: the first fire may grow the log slice.
	eng.ArmTimer(&tm, Time(250e6), h, nil)
	eng.StopTimer(&tm)

	allocs := testing.AllocsPerRun(1000, func() {
		eng.ArmTimer(&tm, Time(250e6), h, nil) // parks in the wheel
		eng.ArmTimer(&tm, Time(90e6), h, nil)  // re-arm across levels
		eng.ArmTimer(&tm, Time(5e3), h, nil)   // re-arm into the heap
		eng.StopTimer(&tm)
	})
	if allocs != 0 {
		t.Fatalf("timer arm/re-arm/stop allocates %v per cycle; want 0", allocs)
	}

	// A firing cycle (arm → dispatch → re-arm from the handler) is also
	// allocation-free once the engine's heap has warmed.
	th := &tickHandler{eng: eng, tm: &tm}
	allocs = testing.AllocsPerRun(1000, func() {
		th.n = 2
		th.seen = th.seen[:0]
		eng.ArmTimer(&tm, 7, th, nil)
		eng.RunAll()
	})
	if allocs != 0 {
		t.Fatalf("timer fire cycle allocates %v; want 0", allocs)
	}
}
