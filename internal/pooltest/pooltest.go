// Package pooltest holds the test helpers for the process-wide chunk pools
// (packet slabs, stream blocks, scoreboard blocks): each is a sync.Pool, so
// what a test finds in it depends on the collector and on the Ps, and a
// test that recycles chunks must not leave them to a later one.
package pooltest

import (
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
)

// Hold starts t from empty pools and keeps what they hold until t ends:
// with the collector off and one P, a chunk Put is the next one Get
// returns. Cleanup restores both and drains the pools (a sync.Pool drops
// what it holds over two collections), so no later test — the fresh-slab
// and fresh-block counts among them — draws a chunk t recycled.
func Hold(t testing.TB) {
	runtime.GC()
	runtime.GC()
	gc := debug.SetGCPercent(-1)
	procs := runtime.GOMAXPROCS(1)
	t.Cleanup(func() {
		runtime.GOMAXPROCS(procs)
		debug.SetGCPercent(gc)
		Drain()
	})
}

// Drain empties every sync.Pool of the process.
func Drain() {
	runtime.GC()
	runtime.GC()
}

// SkipIfPutsDrop skips t when a sync.Pool may drop what is Put in it, as
// it does at random under the race detector: t counts on getting back
// exactly the chunks a run handed back. Call it after Hold.
func SkipIfPutsDrop(t testing.TB) {
	var p sync.Pool
	const n = 64
	for i := 0; i < n; i++ {
		p.Put(new(int))
	}
	for i := 0; i < n; i++ {
		if p.Get() == nil {
			t.Skip("sync.Pool drops Puts in this build (the race detector's), so what a run recycles is not all drawn again")
		}
	}
}
