// Package sim is a fixture stub of the engine's scheduling surface; the
// analyzer matches scheduling calls by method name, so this stub stands in
// for cebinae/internal/sim.
package sim

type Time int64

type Handler interface{ OnEvent(arg any) }

type Func func()

func (f Func) OnEvent(any) { f() }

type Engine struct{ now Time }

func (e *Engine) Now() Time                             { return e.now }
func (e *Engine) ScheduleCall(d Time, h Handler, a any) {}
func (e *Engine) AtCall(t Time, h Handler, a any)       {}
func (e *Engine) RunUntil(t Time)                       {}

type Timer struct{ armed bool }

func (e *Engine) ArmTimer(t *Timer, d Time, h Handler, a any)          {}
func (e *Engine) ArmPinnedTimer(t *Timer, d Time, h Handler, a any)    {}
func (e *Engine) ArmPinnedTimerAt(t *Timer, at Time, h Handler, a any) {}
func (e *Engine) StopTimer(t *Timer) bool                              { return t.armed }

type Stream struct{ n int }

func (e *Engine) StreamCall(s *Stream, at, from Time, h Handler, a any) uint64 { return 0 }

type Event struct{ at Time }

func (e *Engine) DrawSeq() uint64                                                         { return 0 }
func (e *Engine) ScheduleOwned(ev *Event, at, schedAt Time, seq uint64, h Handler, a any) {}
