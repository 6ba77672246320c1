package sim

import (
	"testing"
	"unsafe"
)

type recorder struct {
	eng   *Engine
	fired []any
	times []Time
}

func (r *recorder) OnEvent(arg any) {
	r.fired = append(r.fired, arg)
	r.times = append(r.times, r.eng.Now())
}

// TestScheduleCallOrder interleaves typed handlers and a Func-wrapped
// closure at the same instant and checks the shared (time, seq) FIFO order
// holds across both.
func TestScheduleCallOrder(t *testing.T) {
	eng := NewEngine()
	var order []string
	hook := func(tag string) func() {
		return func() { order = append(order, tag) }
	}
	mark := &marker{order: &order}
	eng.ScheduleCall(5, mark, "typed-1")
	eng.ScheduleCall(5, Func(hook("closure")), nil)
	eng.ScheduleCall(5, mark, "typed-2")
	eng.ScheduleCall(3, mark, "early")
	eng.RunAll()
	want := []string{"early", "typed-1", "closure", "typed-2"}
	if len(order) != len(want) {
		t.Fatalf("dispatch order: got %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("dispatch order: got %v, want %v", order, want)
		}
	}
}

type marker struct{ order *[]string }

func (m *marker) OnEvent(arg any) { *m.order = append(*m.order, arg.(string)) }

// TestAtCallClampsPast: an absolute time in the past fires immediately
// (clamped to now), not at a negative delay.
func TestAtCallClampsPast(t *testing.T) {
	eng := NewEngine()
	r := &recorder{eng: eng}
	eng.ScheduleCall(10, Func(func() { eng.AtCall(5, r, "late") }), nil)
	eng.RunAll()
	if len(r.fired) != 1 || r.times[0] != 10 {
		t.Fatalf("past AtCall should fire at now: fired=%v times=%v", r.fired, r.times)
	}
}

// TestScheduleOwned exercises the caller-owned persistent event: reusable
// after firing, armed late under a key drawn earlier, and refused when
// still pending or when its key is undrawn or already behind the clock.
func TestScheduleOwned(t *testing.T) {
	eng := NewEngine()
	r := &recorder{eng: eng}
	var ev Event
	if ev.pos != 0 {
		t.Fatal("zero-value Event must read as not queued")
	}
	eng.ScheduleOwned(&ev, 1, 0, eng.DrawSeq(), r, 1)
	if ev.pos == 0 {
		t.Fatal("scheduled owned event must read as queued")
	}
	eng.RunAll()
	if ev.pos != 0 {
		t.Fatal("fired owned event must read as not queued")
	}
	eng.ScheduleOwned(&ev, 2, 1, eng.DrawSeq(), r, 2) // reuse after firing
	eng.RunAll()
	if len(r.fired) != 2 || r.fired[1] != 2 {
		t.Fatalf("owned event reuse: fired=%v", r.fired)
	}

	// A key drawn before a pooled event at the same instant sorts ahead of
	// it even when the owned event is armed afterwards.
	seq := eng.DrawSeq()
	eng.ScheduleCall(5, r, "pooled")
	eng.ScheduleOwned(&ev, 7, 2, seq, r, "owned")
	eng.RunAll()
	if got := r.fired[2:]; len(got) != 2 || got[0] != "owned" || got[1] != "pooled" {
		t.Fatalf("late-armed owned event fired out of key order: %v", got)
	}

	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		f()
	}
	mustPanic("an undrawn seq", func() { eng.ScheduleOwned(&ev, 10, 7, eng.DrawSeq()+1, r, nil) })
	mustPanic("a dispatched key", func() { eng.ScheduleOwned(&ev, 7, 2, seq, r, nil) })
	mustPanic("a stamp after the deadline", func() { eng.ScheduleOwned(&ev, 8, 9, eng.DrawSeq(), r, nil) })
	eng.ScheduleOwned(&ev, 8, 7, eng.DrawSeq(), r, 3)
	mustPanic("double ScheduleOwned", func() { eng.ScheduleOwned(&ev, 9, 7, eng.DrawSeq(), r, 5) })
}

// TestDispatched: the query compares a key against the event now
// dispatching — time, then scheduling stamp, then seq — and, once Run has
// settled the clock at a horizon, counts everything at or before it.
func TestDispatched(t *testing.T) {
	eng := NewEngine()
	if eng.Dispatched(0, 0, 0) {
		t.Fatal("a fresh engine reports a key as dispatched")
	}
	var got []bool
	probe := Func(func() {
		got = append(got,
			eng.Dispatched(9, 9, 0),      // earlier instant
			eng.Dispatched(10, 4, 99),    // same instant, earlier stamp
			eng.Dispatched(10, 5, 0),     // same instant and stamp, earlier seq
			eng.Dispatched(10, 5, 1<<40), // later seq
			eng.Dispatched(10, 6, 0),     // later stamp
			eng.Dispatched(11, 0, 0),     // later instant
		)
	})
	eng.ScheduleCall(5, Func(func() { eng.ScheduleCall(5, probe, nil) }), nil)
	eng.Run(20)
	want := []bool{true, true, true, false, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Dispatched inside a dispatch = %v, want %v", got, want)
		}
	}
	if !eng.Dispatched(20, 19, 1<<40) || eng.Dispatched(21, 0, 0) {
		t.Fatal("after Run(20) settles, every key up to 20 and none after it is dispatched")
	}
	if seq := eng.DrawSeq(); eng.Dispatched(20, 20, seq) || !eng.Dispatched(20, 20, seq-1) {
		t.Fatal("after Run(20) settles, a key drawn at 20 since is not dispatched")
	}
}

// TestPooledRecycling checks that ScheduleCall events actually return to the
// engine free list and that a handler rescheduling itself from inside
// OnEvent reuses storage rather than growing it.
func TestPooledRecycling(t *testing.T) {
	eng := NewEngine()
	r := &recorder{eng: eng}
	for i := 0; i < 3; i++ {
		eng.ScheduleCall(Time(i), r, i)
	}
	eng.RunAll()
	if n := len(eng.free); n != 3 {
		t.Fatalf("free list holds %d events after drain, want 3", n)
	}
	// Self-rescheduling loop: the whole run should consume exactly the
	// free-listed events, allocating none beyond them.
	l := &selfLoop{eng: eng, remaining: 1000}
	eng.ScheduleCall(1, l, nil)
	eng.RunAll()
	if n := len(eng.free); n != 3 {
		t.Fatalf("free list holds %d events after loop, want 3 (steady-state reuse)", n)
	}
}

type selfLoop struct {
	eng       *Engine
	remaining int
}

func (l *selfLoop) OnEvent(any) {
	l.remaining--
	if l.remaining > 0 {
		l.eng.ScheduleCall(1, l, nil)
	}
}

// TestEventSize pins the layout every pending occurrence pays for: one
// cache line per Event, and an embedded Timer at Event + 16 (its wheel
// links; its handler, payload and placement live in the Event).
func TestEventSize(t *testing.T) {
	if n := unsafe.Sizeof(Event{}); n != 64 {
		t.Fatalf("sizeof(Event) = %d, want 64", n)
	}
	if n := unsafe.Sizeof(Timer{}); n != 80 {
		t.Fatalf("sizeof(Timer) = %d, want 80", n)
	}
}
