package sim_test

import (
	"testing"

	"cebinae/internal/sim"
)

// dispatchLoop is a self-rescheduling handler: every dispatch schedules the
// next until remaining runs out, reusing the one recycled event.
type dispatchLoop struct {
	eng       *sim.Engine
	remaining int
}

func (l *dispatchLoop) OnEvent(any) {
	l.remaining--
	if l.remaining > 0 {
		l.eng.ScheduleCall(1, l, nil)
	}
}

type timerNopHandler struct{}

func (timerNopHandler) OnEvent(any) {}

// BenchmarkEngineDispatch measures the pooled typed-event schedule+dispatch
// cycle — the simulator's innermost loop.
func BenchmarkEngineDispatch(b *testing.B) {
	eng := sim.NewEngine()
	l := &dispatchLoop{eng: eng, remaining: b.N}
	b.ReportAllocs()
	b.ResetTimer()
	eng.ScheduleCall(1, l, nil)
	eng.RunAll()
}

// BenchmarkTimerChurn measures embedded-timer re-arm churn against a
// standing population of 256 armed timers — the pattern of retransmission,
// pacing and delayed-ACK timers: wheel-resident timers re-arm in place via
// an O(1) bucket unlink.
func BenchmarkTimerChurn(b *testing.B) {
	eng := sim.NewEngine()
	h := timerNopHandler{}
	const depth = 256
	var tms [depth]sim.Timer
	for i := range tms {
		eng.ArmTimer(&tms[i], sim.Time(i+1)*sim.Time(1e6), h, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slot := i % depth
		eng.ArmTimer(&tms[slot], sim.Time(slot+1)*sim.Time(1e6), h, nil)
	}
}

// TestEngineDispatchZeroAlloc pins the tentpole invariant: the typed
// fast-path schedule+dispatch cycle performs no allocation at steady state.
func TestEngineDispatchZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	l := &dispatchLoop{eng: eng}
	// Warm: the first ScheduleCall allocates the one event the loop reuses.
	l.remaining = 2
	eng.ScheduleCall(1, l, nil)
	eng.RunAll()
	allocs := testing.AllocsPerRun(100, func() {
		l.remaining = 10
		eng.ScheduleCall(1, l, nil)
		eng.RunAll()
	})
	if allocs != 0 {
		t.Fatalf("typed dispatch cycle allocates %.1f objects/run, want 0", allocs)
	}
}

// TestTimerChurnZeroAlloc pins the Timer surface: re-arming a standing
// population of wheel-resident timers allocates nothing.
func TestTimerChurnZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	h := timerNopHandler{}
	const depth = 64
	var tms [depth]sim.Timer
	for i := range tms {
		eng.ArmTimer(&tms[i], sim.Time(i+1)*sim.Time(1e6), h, nil)
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		slot := i % depth
		i++
		eng.ArmTimer(&tms[slot], sim.Time(slot+1)*sim.Time(1e6), h, nil)
	})
	if allocs != 0 {
		t.Fatalf("timer re-arm churn allocates %.1f objects/op, want 0", allocs)
	}
}
