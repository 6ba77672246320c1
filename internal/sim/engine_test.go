package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.ScheduleCall(30, Func(func() { order = append(order, 3) }), nil)
	e.ScheduleCall(10, Func(func() { order = append(order, 1) }), nil)
	e.ScheduleCall(20, Func(func() { order = append(order, 2) }), nil)
	e.RunAll()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events fired out of order: %v", order)
	}
}

func TestFIFOTieBreaking(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.AtCall(5, Func(func() { order = append(order, i) }), nil)
	}
	e.RunAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: pos %d got %d", i, v)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	e := NewEngine()
	var seen []Time
	e.ScheduleCall(100, Func(func() { seen = append(seen, e.Now()) }), nil)
	e.ScheduleCall(250, Func(func() { seen = append(seen, e.Now()) }), nil)
	end := e.Run(1000)
	if seen[0] != 100 || seen[1] != 250 {
		t.Fatalf("clock wrong during dispatch: %v", seen)
	}
	if end != 1000 || e.Now() != 1000 {
		t.Fatalf("Run should settle at the horizon: end=%v now=%v", end, e.Now())
	}
}

func TestRunHorizonExclusivity(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.AtCall(500, Func(func() { fired++ }), nil)
	e.AtCall(501, Func(func() { fired++ }), nil)
	e.Run(500)
	if fired != 1 {
		t.Fatalf("events at the horizon fire, later ones don't: fired=%d", fired)
	}
	e.Run(501)
	if fired != 2 {
		t.Fatalf("resumed run must fire the remaining event: fired=%d", fired)
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	count := 0
	e.ScheduleCall(1, Func(func() { count++; e.Stop() }), nil)
	e.ScheduleCall(2, Func(func() { count++ }), nil)
	e.RunAll()
	if count != 1 {
		t.Fatalf("Stop should halt dispatch: count=%d", count)
	}
	if e.Pending() != 1 {
		t.Fatalf("stopped engine keeps pending events: %d", e.Pending())
	}
}

func TestReentrantScheduling(t *testing.T) {
	e := NewEngine()
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 50 {
			e.ScheduleCall(1, Func(rec), nil)
		}
	}
	e.ScheduleCall(0, Func(rec), nil)
	e.RunAll()
	if depth != 50 {
		t.Fatalf("re-entrant scheduling broken: depth=%d", depth)
	}
	if e.Now() != 49 {
		t.Fatalf("clock should be 49, got %v", e.Now())
	}
}

func TestPastScheduleClamps(t *testing.T) {
	e := NewEngine()
	e.ScheduleCall(100, Func(func() {
		fired := false
		e.AtCall(5, Func(func() { fired = true }), nil) // in the past
		e.ScheduleCall(-3, Func(func() {}), nil)
		_ = fired
	}), nil)
	e.RunAll()
	if e.Now() != 100 {
		t.Fatalf("past events must clamp to now, clock=%v", e.Now())
	}
}

func TestDurationConversions(t *testing.T) {
	if Duration(time.Second) != 1e9 {
		t.Fatal("Duration conversion wrong")
	}
	if Time(1500e6).Seconds() != 1.5 {
		t.Fatal("Seconds conversion wrong")
	}
	if Time(250).Std() != 250*time.Nanosecond {
		t.Fatal("Std conversion wrong")
	}
}

// TestEventOrderProperty: for any set of delays, events fire in
// nondecreasing time order with ties in schedule order.
func TestEventOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		e := NewEngine()
		type firing struct {
			at  Time
			seq int
		}
		var fired []firing
		for i, d := range delays {
			i, at := i, Time(d)
			e.AtCall(at, Func(func() { fired = append(fired, firing{e.Now(), i}) }), nil)
		}
		e.RunAll()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i].at < fired[i-1].at {
				return false
			}
			if fired[i].at == fired[i-1].at && fired[i].seq < fired[i-1].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(123), NewRand(123)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := NewRand(124)
	same := 0
	for i := 0; i < 1000; i++ {
		if b.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds should diverge, %d collisions", same)
	}
}

func TestRandRanges(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 10000; i++ {
		if v := r.Float64(); v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		if v := r.Intn(17); v < 0 || v >= 17 {
			t.Fatalf("Intn out of range: %v", v)
		}
		if v := r.ExpFloat64(); v < 0 {
			t.Fatalf("ExpFloat64 negative: %v", v)
		}
	}
}

func TestRandExpMean(t *testing.T) {
	r := NewRand(99)
	var sum float64
	n := 200000
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64()
	}
	mean := sum / float64(n)
	if mean < 0.97 || mean > 1.03 {
		t.Fatalf("exponential mean should be ≈1, got %v", mean)
	}
}

func TestRandPerm(t *testing.T) {
	r := NewRand(5)
	p := r.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestZeroSeedRemapped(t *testing.T) {
	r := NewRand(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed must not produce a stuck stream")
	}
}
