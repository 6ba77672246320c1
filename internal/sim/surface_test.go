package sim

import (
	"testing"
	"time"
)

type surfHandler struct{ n *int }

func (h surfHandler) OnEvent(any) { *h.n++ }

// TestConvenienceSurfaces exercises the thin wrappers around the core
// scheduling paths: std-duration conversion, an owned event's deadline,
// the next-event lower bound, and the RunUntil alias.
func TestConvenienceSurfaces(t *testing.T) {
	if s := Time(1.5e9).String(); s != "1.500000s" {
		t.Fatalf("Time.String = %q", s)
	}
	eng := NewEngine()
	if got := eng.NextEventTime(); got != MaxTime {
		t.Fatalf("idle NextEventTime = %v, want MaxTime", got)
	}
	fired := 0
	var ev Event
	eng.ScheduleOwned(&ev, Duration(2*time.Millisecond), 0, eng.DrawSeq(), surfHandler{&fired}, nil)
	if ev.At() != Duration(2e6) {
		t.Fatalf("ScheduleOwned(Duration(2ms)) deadline = %v, want 2ms", ev.At())
	}
	eng.AtCall(Duration(5e6), Func(func() { fired++ }), nil)
	if got := eng.NextEventTime(); got != Duration(2e6) {
		t.Fatalf("NextEventTime = %v, want the 2ms event", got)
	}
	if end := eng.RunUntil(Duration(10e6)); end != Duration(10e6) || fired != 2 {
		t.Fatalf("RunUntil ended at %v with %d firings, want 10ms and 2", end, fired)
	}
	if got := eng.NextEventTime(); got != MaxTime {
		t.Fatalf("drained NextEventTime = %v, want MaxTime", got)
	}
}

// TestStreamCallStampAndClamp: a cross-engine injection dispatches like a
// local event, a deadline in the past and negative fast-path delays clamp
// to now, and a scheduling stamp after the deadline is a caller bug that
// must panic.
func TestStreamCallStampAndClamp(t *testing.T) {
	eng := NewEngine()
	n := 0
	h := surfHandler{&n}
	var s, late Stream
	eng.ScheduleCall(10, Func(func() {
		eng.StreamCall(&late, 3, 2, h, nil) // past deadline: fires at 10
		if late.ev.at != 10 || late.ev.schedAt != 2 {
			t.Errorf("clamped push keyed (%d, %d), want (10, 2)", late.ev.at, late.ev.schedAt)
		}
	}), nil)
	eng.StreamCall(&s, Duration(1e6), Duration(1e3), h, nil)
	eng.ScheduleCall(-5, h, nil)
	eng.RunAll()
	if n != 3 {
		t.Fatalf("dispatched %d events, want 3", n)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("StreamCall(from > at) did not panic")
		}
	}()
	eng.StreamCall(&s, 1, 2, h, nil)
}

// TestArmPinnedTimerSurface: the relative pinned arm lands on the pinned
// deadline index, and a negative relative arm clamps to the current
// instant.
func TestArmPinnedTimerSurface(t *testing.T) {
	eng := NewEngine()
	n := 0
	h := surfHandler{&n}
	var tm, tm2 Timer
	eng.ArmPinnedTimer(&tm, Duration(3e6), h, nil)
	if got := eng.NextPinnedTime(); got != Duration(3e6) {
		t.Fatalf("NextPinnedTime = %v, want 3ms", got)
	}
	eng.ArmTimer(&tm2, -1, h, nil)
	eng.RunAll()
	if n != 2 {
		t.Fatalf("fired %d timers, want 2", n)
	}
}
