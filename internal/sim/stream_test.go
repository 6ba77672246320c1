package sim

import (
	"fmt"
	"testing"
	"unsafe"

	"cebinae/internal/pooltest"
)

// stamped is a stream payload carrying a stamp of the time it was pushed,
// like a packet's EnqueuedAt: taken from Local, per the package rule.
type stamped struct {
	id     int
	pushed Time
}

// TestStreamOneResidency: however many entries a stream holds, it occupies
// one heap slot; Pending counts every entry and NextEventTime is the head's
// deadline.
func TestStreamOneResidency(t *testing.T) {
	eng := NewEngine()
	var log []string
	var s Stream
	r := &timerRecorder{log: &log, eng: eng}
	const n = 3*streamBlockLen + 7
	for i := 0; i < n; i++ {
		eng.StreamCall(&s, Time(100+i/2), 0, r, i)
	}
	if len(eng.queue) != 1 || eng.Pending() != n {
		t.Fatalf("heap holds %d, Pending %d; want 1, %d", len(eng.queue), eng.Pending(), n)
	}
	if got := eng.NextEventTime(); got != 100 {
		t.Fatalf("NextEventTime = %v, want the head's 100", got)
	}
	eng.Run(100 + n/4)
	if want := 2*(n/4) + 2; len(log) != want || eng.Pending() != n-want {
		t.Fatalf("dispatched %d with %d pending, want %d and %d", len(log), eng.Pending(), want, n-want)
	}
	eng.RunAll()
	for i, rec := range log {
		if want := fmt.Sprintf("%d@%d", i, 100+i/2); rec != want {
			t.Fatalf("entry %d fired as %s, want %s", i, rec, want)
		}
	}
	if eng.Pending() != 0 || eng.Processed != n || s.ev.handler != nil || s.arg != nil {
		t.Fatalf("after drain: Pending %d, Processed %d, head handler %v, payload %v", eng.Pending(), eng.Processed, s.ev.handler, s.arg)
	}
	// Drained blocks are back on the engine's free list, holding no payload
	// alive: refilling the stream allocates nothing.
	blocks := 0
	for b := eng.freeBlocks; b != nil; b = b.next {
		blocks++
		for _, ent := range b.ent {
			if ent.arg != nil {
				t.Fatalf("a free block still references payload %v", ent.arg)
			}
		}
	}
	if blocks != 4 {
		t.Fatalf("%d blocks on the free list, want 4", blocks)
	}
	nop := handlerFunc(func(any) {})
	if allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < n; i++ {
			eng.StreamCall(&s, eng.Now()+Time(i), eng.Now(), nop, nil)
		}
		eng.RunAll()
	}); allocs != 0 {
		t.Fatalf("refilling a drained stream allocates %v per cycle; want 0", allocs)
	}
}

// TestStreamHandlerPushesOntoOwnStream: the heap is consistent before the
// handler runs, so a handler may extend the stream it was dispatched from —
// including when its entry was the last one.
func TestStreamHandlerPushesOntoOwnStream(t *testing.T) {
	eng := NewEngine()
	var s Stream
	left := 5
	var fired []int64
	var h handlerFunc
	h = func(any) {
		fired = append(fired, int64(eng.Now()))
		if left--; left > 0 {
			eng.StreamCall(&s, eng.Now()+10, eng.Now(), h, nil)
		}
	}
	eng.StreamCall(&s, 10, 0, h, nil)
	eng.StreamCall(&s, 15, 0, h, nil)
	eng.RunAll()
	if fmt.Sprint(fired) != "[10 15 20 25 30 35]" {
		t.Fatalf("fired at %v", fired)
	}
}

// sharedRecv is one of several receivers pushing onto one stream, like the
// arrival side of one of several links with the same delay.
type sharedRecv struct {
	id  int
	log *[]string
	eng *Engine
	// onFire, when set, runs inside the dispatch.
	onFire func()
}

func (r *sharedRecv) OnEvent(arg any) {
	*r.log = append(*r.log, fmt.Sprintf("r%d got %v @%d", r.id, arg, r.eng.Now()))
	if r.onFire != nil {
		r.onFire()
	}
}

// TestStreamSharedHandlers: a zero Stream, with no set-up call, carries
// entries for any number of handlers. Each entry fires the handler it was
// pushed with, with its own payload, in key order; the lot occupies one
// heap slot; and a handler may push an entry for another handler onto the
// stream that is dispatching it, whether or not its own entry was the last.
func TestStreamSharedHandlers(t *testing.T) {
	eng := NewEngine()
	var log []string
	var s Stream
	const n = streamBlockLen + 5 // the entries span a block boundary
	recv := make([]*sharedRecv, n)
	for i := range recv {
		recv[i] = &sharedRecv{id: i, log: &log, eng: eng}
		eng.StreamCall(&s, Time(100+i), 0, recv[i], 1000+i)
	}
	if len(eng.queue) != 1 || eng.Pending() != n {
		t.Fatalf("heap holds %d, Pending %d with %d handlers pending; want 1, %d", len(eng.queue), eng.Pending(), n, n)
	}
	// Receiver 2 extends the stream mid-run on behalf of receiver 0; the
	// last receiver does the same from the entry that drains the stream.
	extend := func() { eng.StreamCall(&s, eng.Now()+500, eng.Now(), recv[0], "extra") }
	recv[2].onFire, recv[n-1].onFire = extend, extend
	eng.RunAll()
	if len(log) != n+2 {
		t.Fatalf("dispatched %d entries, want %d: %v", len(log), n+2, log)
	}
	for i := 0; i < n; i++ {
		if want := fmt.Sprintf("r%d got %d @%d", i, 1000+i, 100+i); log[i] != want {
			t.Fatalf("entry %d fired as %q, want %q", i, log[i], want)
		}
	}
	if log[n] != "r0 got extra @602" || log[n+1] != fmt.Sprintf("r0 got extra @%d", 100+n-1+500) {
		t.Fatalf("entries pushed from inside the dispatch fired as %q", log[n:])
	}
	if eng.Pending() != 0 || len(eng.queue) != 0 {
		t.Fatalf("after drain: Pending %d, heap %d", eng.Pending(), len(eng.queue))
	}
}

// TestStreamEntrySize pins the layout the block length is derived from: a
// 56-byte entry (key, handler, payload), and a block that stays inside the
// allocator's 2048-byte size class.
func TestStreamEntrySize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are stated for 64-bit words")
	}
	if got := unsafe.Sizeof(streamEntry{}); got != 56 {
		t.Fatalf("streamEntry is %d bytes, want 56", got)
	}
	if got := unsafe.Sizeof(streamBlock{}); got > 2048 || got+unsafe.Sizeof(streamEntry{}) <= 2048 {
		t.Fatalf("streamBlock is %d bytes: want the most entries that fit 2048", got)
	}
}

type handlerFunc func(any)

func (f handlerFunc) OnEvent(arg any) { f(arg) }

// TestFastForwardStreamInFlight: a skip with entries in flight moves every
// entry's key once, keeps the order among them and against other events,
// leaves the time a payload's Local stamp measures untouched, and is still
// bounded by a pinned deadline.
func TestFastForwardStreamInFlight(t *testing.T) {
	eng := NewEngine()
	var log []string
	r := &timerRecorder{log: &log, eng: eng}
	var a, b Stream
	fire := handlerFunc(func(arg any) {
		p := arg.(*stamped)
		log = append(log, fmt.Sprintf("e%d@%d after %d", p.id, eng.Now(), eng.Local()-p.pushed))
	})
	const n = 2*streamBlockLen + 3
	for i := 0; i < n; i++ {
		eng.StreamCall(&a, Time(1000+2*i), Time(i), fire, &stamped{id: i, pushed: eng.Local()})
	}
	eng.StreamCall(&b, 1005, 5, fire, &stamped{id: n, pushed: eng.Local()})
	eng.AtCall(1006, r, 77) // ties a's entry 3 on the deadline; emitted earlier, so it fires first
	var pin Timer
	eng.ArmPinnedTimerAt(&pin, 5004, r, 99)

	eng.Run(1004) // consume the first entries so the skip starts mid-block
	const skip = Time(4000)
	eng.FastForward(skip)
	// a's head (entry 3) is its residency; the rest sit in blocks.
	if a.ev.at != 1006+skip || a.ev.schedAt != 3+skip {
		t.Fatalf("residency keyed (%d, %d) after the skip", a.ev.at, a.ev.schedAt)
	}
	i, idx := a.hi, 4
	for blk := a.head; blk != nil; blk = blk.next {
		end := streamBlockLen
		if blk == a.tail {
			end = a.ti
		}
		for ; i < end; i, idx = i+1, idx+1 {
			ent := blk.ent[i]
			if ent.at != Time(1000+2*idx)+skip || ent.schedAt != Time(idx)+skip {
				t.Fatalf("entry %d keyed (%d, %d) after the skip", idx, ent.at, ent.schedAt)
			}
		}
		i = 0
	}
	if idx != n {
		t.Fatalf("walked entries up to %d, want %d", idx, n)
	}

	log = log[:0]
	eng.RunAll()
	want := []string{
		"99@5004", // the pinned deadline kept its absolute time: it now fires first
		fmt.Sprintf("e%d@%d after 1005", n, 1005+skip),
		fmt.Sprintf("77@%d", 1006+skip),
		fmt.Sprintf("e3@%d after 1006", 1006+skip),
	}
	for i, w := range want {
		if log[i] != w {
			t.Fatalf("dispatch %d = %q, want %q\n%v", i, log[i], w, log[:len(want)])
		}
	}
	for k := 4; k < n; k++ {
		w := fmt.Sprintf("e%d@%d after %d", k, Time(1000+2*k)+skip, 1000+2*k)
		if got := log[len(want)+k-4]; got != w {
			t.Fatalf("entry %d fired as %q, want %q", k, got, w)
		}
	}

	// Entries in flight do not hide a pinned deadline from the skip bound.
	eng.StreamCall(&a, eng.Now()+10, eng.Now(), fire, &stamped{})
	eng.ArmPinnedTimer(&pin, 100, r, 99)
	if got := eng.NextPinnedTime(); got != eng.Now()+100 {
		t.Fatalf("NextPinnedTime = %v with a stream pending, want %v", got, eng.Now()+100)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("FastForward across a pinned event must panic with entries in flight")
		}
	}()
	eng.FastForward(101)
}

// TestStreamCallOutOfOrderPanics: the FIFO precondition is checked, not
// assumed — on the deadline, on the emission stamp at an equal deadline,
// and against a tail that a FastForward moved.
func TestStreamCallOutOfOrderPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	eng := NewEngine()
	var s Stream
	h := handlerFunc(func(any) {})
	eng.StreamCall(&s, 100, 50, h, nil)
	eng.StreamCall(&s, 100, 50, h, nil) // an equal key is in order: seq breaks the tie
	mustPanic("earlier deadline", func() { eng.StreamCall(&s, 99, 50, h, nil) })
	mustPanic("equal deadline, earlier stamp", func() { eng.StreamCall(&s, 100, 49, h, nil) })
	eng.FastForward(1000)
	mustPanic("deadline below the shifted tail", func() { eng.StreamCall(&s, 1099, 1050, h, nil) })
	mustPanic("stamp below the shifted tail", func() { eng.StreamCall(&s, 1100, 1049, h, nil) })
	eng.StreamCall(&s, 1100, 1050, h, nil)
	// Once drained the stream has no tail: any key is in order.
	eng.RunAll()
	eng.StreamCall(&s, eng.Now(), eng.Now(), h, nil)
	eng.RunAll()
	if eng.Processed != 4 {
		t.Fatalf("dispatched %d entries, want 4", eng.Processed)
	}
}

// TestEngineRecycle: Recycle hands every stream block the engine made back
// to the process, cleared — those still queued behind a stream's head and
// those on the free list — and drops them from their streams. The next
// engine draws exactly those blocks, each zeroed, before it allocates.
func TestEngineRecycle(t *testing.T) {
	pooltest.Hold(t)
	pooltest.SkipIfPutsDrop(t)
	nop := handlerFunc(func(any) {})
	a := NewEngine()
	var drained, queued Stream
	const n = 3 * streamBlockLen
	for i := 0; i < n; i++ {
		a.StreamCall(&drained, Time(i), 0, nop, &stamped{id: i})
		a.StreamCall(&queued, Time(1000+i), 0, nop, &stamped{id: i})
	}
	a.Run(500)
	made := map[*streamBlock]bool{}
	for b := queued.head; b != nil; b = b.next {
		made[b] = true
	}
	for b := a.freeBlocks; b != nil; b = b.next {
		made[b] = true
	}
	if len(made) != 6 {
		t.Fatalf("%d blocks queued or free, want 6", len(made))
	}
	a.Recycle()
	if queued.head != nil || queued.tail != nil || a.freeBlocks != nil {
		t.Fatal("a recycled engine still holds stream blocks")
	}
	for i := 0; i < len(made); i++ {
		b := newBlock()
		if !made[b] || *b != (streamBlock{}) {
			t.Fatalf("draw %d after the recycle: recycled=%v, cleared=%v; want a cleared block of the recycled engine", i, made[b], *b == streamBlock{})
		}
	}
	if b := newBlock(); made[b] {
		t.Fatal("the process pool handed out a recycled block twice")
	}
}
