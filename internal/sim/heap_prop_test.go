package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refScheduler is a reference implementation of the engine's ordering
// contract — a container/heap binary min-heap over (time, seq), the exact
// structure the engine used before the inlined 4-ary heap — driven through
// the same schedule/cancel/dispatch scripts as the real engine to prove the
// replacement preserves dispatch order, including same-instant FIFO
// tie-breaking.
type refScheduler struct {
	now   Time
	seq   uint64
	queue refQueue
}

type refEvent struct {
	at    Time
	seq   uint64
	index int
	id    int
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *refQueue) Push(x any) {
	ev := x.(*refEvent)
	ev.index = len(*q)
	*q = append(*q, ev)
}
func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

func (r *refScheduler) schedule(d Time, id int) *refEvent {
	if d < 0 {
		d = 0
	}
	ev := &refEvent{at: r.now + d, seq: r.seq, id: id}
	r.seq++
	heap.Push(&r.queue, ev)
	return ev
}

func (r *refScheduler) cancel(ev *refEvent) {
	if ev == nil || ev.index == -1 {
		return
	}
	heap.Remove(&r.queue, ev.index)
	ev.index = -1
}

func (r *refScheduler) drain() []int {
	var order []int
	for r.queue.Len() > 0 {
		ev := heap.Pop(&r.queue).(*refEvent)
		ev.index = -1
		r.now = ev.at
		order = append(order, ev.id)
	}
	return order
}

// op scripts one generator step. Encodings (from fuzz bytes or the PRNG):
// schedule with a small delay (dense ties on purpose), or cancel one of the
// still-pending events.
type op struct {
	cancel bool
	delay  Time   // schedule: delay in [0, 16)
	victim uint32 // cancel: index into pending handles
}

// runScript drives the engine and the reference through the same script and
// compares full dispatch order. The engine side arms pinned timers: those
// are heap-resident whatever their deadline, so a cancel is a heapRemove at
// an arbitrary heap position rather than a wheel unlink.
func runScript(t *testing.T, ops []op) {
	t.Helper()
	eng := NewEngine()
	ref := &refScheduler{}

	var got []int
	var engTimers []*Timer
	var refEvents []*refEvent
	for i, o := range ops {
		if o.cancel {
			if len(engTimers) == 0 {
				continue
			}
			v := int(o.victim) % len(engTimers)
			eng.StopTimer(engTimers[v])
			ref.cancel(refEvents[v])
			continue
		}
		id := i
		tm := new(Timer)
		eng.ArmPinnedTimer(tm, o.delay, Func(func() { got = append(got, id) }), nil)
		engTimers = append(engTimers, tm)
		refEvents = append(refEvents, ref.schedule(o.delay, id))
	}
	eng.RunAll()
	want := ref.drain()

	if len(got) != len(want) {
		t.Fatalf("dispatched %d events, reference dispatched %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("dispatch order diverges at %d: engine fired %d, reference %d\ngot  %v\nwant %v",
				i, got[i], want[i], got, want)
		}
	}
}

// TestHeapMatchesReference drives many random schedule/cancel scripts with
// heavy same-instant collision pressure through both heaps.
func TestHeapMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(0xCEB14AE))
	for trial := 0; trial < 200; trial++ {
		n := 5 + rng.Intn(400)
		ops := make([]op, n)
		for i := range ops {
			if rng.Intn(4) == 0 {
				ops[i] = op{cancel: true, victim: rng.Uint32()}
			} else {
				ops[i] = op{delay: Time(rng.Intn(16))}
			}
		}
		runScript(t, ops)
	}
}

// TestHeapMatchesReferenceNested extends the property to events scheduled
// from inside callbacks (the engine's real usage pattern): every firing may
// schedule follow-ups, deterministically derived from its id.
func TestHeapMatchesReferenceNested(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		eng := NewEngine()
		ref := &refScheduler{}
		var got, want []int

		// Engine side: callbacks reschedule one or two children.
		next := 0
		var fire func(id int)
		spawn := func(id int, d Time) {
			eng.ScheduleCall(d, Func(func() { fire(id) }), nil)
		}
		fire = func(id int) {
			got = append(got, id)
			if id < 2000 {
				spawn(next+1000, Time(id%7))
				if id%3 == 0 {
					spawn(next+2000, Time(id%5))
				}
				next++
			}
		}
		for i := 0; i < 50; i++ {
			spawn(i, Time((int(seed)*i)%11))
		}
		eng.RunAll()

		// Reference side: identical logic over the reference heap.
		refNext := 0
		for i := 0; i < 50; i++ {
			ref.schedule(Time((int(seed)*i)%11), i)
		}
		for ref.queue.Len() > 0 {
			ev := heap.Pop(&ref.queue).(*refEvent)
			ev.index = -1
			ref.now = ev.at
			want = append(want, ev.id)
			if ev.id < 2000 {
				ref.schedule(Time(ev.id%7), refNext+1000)
				if ev.id%3 == 0 {
					ref.schedule(Time(ev.id%5), refNext+2000)
				}
				refNext++
			}
		}

		if len(got) != len(want) {
			t.Fatalf("seed %d: %d vs %d events", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: order diverges at %d (%d vs %d)", seed, i, got[i], want[i])
			}
		}
	}
}

// FuzzHeapDispatchOrder fuzzes raw op scripts through both heaps. Three
// bytes per op: kind, delay/victim low, victim high.
func FuzzHeapDispatchOrder(f *testing.F) {
	f.Add([]byte{0, 5, 0, 0, 5, 0, 1, 0, 0, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0})
	f.Add([]byte{0, 3, 0, 1, 0, 0, 0, 3, 0, 1, 0, 1, 0, 2, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		var ops []op
		for i := 0; i+2 < len(data) && len(ops) < 2048; i += 3 {
			if data[i]%4 == 3 {
				ops = append(ops, op{cancel: true, victim: uint32(data[i+1]) | uint32(data[i+2])<<8})
			} else {
				ops = append(ops, op{delay: Time(data[i+1] % 16)})
			}
		}
		runScript(t, ops)
	})
}
