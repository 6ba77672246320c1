//go:build packetdebug

package packet

import (
	"strings"
	"testing"
	"unsafe"

	"cebinae/internal/pooltest"
)

// mustPanic runs f and fails t unless it panics with a message containing
// want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Fatalf("got panic %v, want one naming %q", r, want)
		}
	}()
	f()
}

// TestPoolDoubleFreePanics verifies the packetdebug build's ownership
// checking: releasing the same packet — here one from the middle of a
// slab — twice must panic rather than silently corrupt the free list.
func TestPoolDoubleFreePanics(t *testing.T) {
	var pool Pool
	pool.Get()
	p := pool.Get()
	pool.Get()
	pool.Put(p)
	mustPanic(t, "double free", func() { pool.Put(p) })
}

// TestPoolPoisonsReleasedPacket: Put overwrites every field a hand-off
// path reads with its sentinel, so a read after release sees a negative
// size and a flow no topology has, and Get hands the packet back zeroed.
func TestPoolPoisonsReleasedPacket(t *testing.T) {
	var pool Pool
	p := pool.Get()
	p.Flow = FlowKey{Src: 1, Dst: 2, SrcPort: 3, DstPort: 4, Proto: ProtoTCP}
	p.Seq, p.Ack, p.EnqueuedAt = 1448, 2896, 7
	p.PayloadSize, p.Size, p.FlowID = MSS, MSS+HeaderBytes, 5
	pool.Put(p)
	if !poisoned(p) || p.Size >= 0 || p.PayloadSize >= 0 || p.Seq >= 0 || p.Ack >= 0 || p.Flow.Dst >= 0 {
		t.Fatalf("released packet not poisoned: %+v", *p)
	}
	if q := pool.Get(); q != p || *q != (Packet{}) {
		t.Fatalf("recycled packet: same=%v, %+v; want the released packet, zeroed", q == p, *q)
	}
}

// TestPoolWriteAfterFreePanics: a write to a released packet — here the
// byte count a forwarding path stamps after handing the packet off — is
// caught when the pool hands the packet out again.
func TestPoolWriteAfterFreePanics(t *testing.T) {
	var pool Pool
	p := pool.Get()
	pool.Put(p)
	p.Size = 1500
	mustPanic(t, "written after its release", func() { pool.Get() })
}

// TestPoolRecyclePoisonsSlabs: Recycle poisons every packet of the slabs it
// hands back — handed out or not, released or not — so a read of a packet
// after its run recycled sees the sentinels. The next pool to draw the
// slab hands its packets out zeroed, and a packet written after the
// recycle panics that pool's draw.
func TestPoolRecyclePoisonsSlabs(t *testing.T) {
	pooltest.Hold(t)
	pooltest.SkipIfPutsDrop(t)
	var a Pool
	live := a.Get()
	live.Flow = FlowKey{Src: 1, Dst: 2, SrcPort: 3, DstPort: 4, Proto: ProtoTCP}
	live.Seq, live.PayloadSize, live.Size = 1448, MSS, MSS+HeaderBytes
	a.Put(a.Get())
	a.Recycle()
	slab := unsafe.Slice(live, slabLen) // the first Get of a fresh slab is its first packet
	for i := range slab {
		if !poisoned(&slab[i]) {
			t.Fatalf("packet %d of a recycled slab not poisoned: %+v", i, slab[i])
		}
	}
	if live.Size >= 0 || live.PayloadSize >= 0 || live.Seq >= 0 || live.Flow.Dst >= 0 {
		t.Fatalf("a read after the run recycled sees %+v, want the sentinels", *live)
	}

	var b Pool
	if p := b.Get(); p != live || *p != (Packet{}) {
		t.Fatalf("the next run's first packet: recycled=%v, %+v; want the recycled slab's first packet, zeroed", p == live, *p)
	}
	b.Recycle()
	live.Size = 1500
	var c Pool
	mustPanic(t, "written after its run was recycled", func() { c.Get() })
}
