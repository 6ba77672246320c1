package pooltest

import (
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
)

// TestHold: under Hold a Put is the next Get, whatever collection runs in
// between, and cleanup puts the collector and the Ps back.
func TestHold(t *testing.T) {
	gc, procs := debug.SetGCPercent(100), runtime.GOMAXPROCS(0)
	debug.SetGCPercent(gc)
	t.Run("held", func(t *testing.T) {
		Hold(t)
		SkipIfPutsDrop(t)
		if runtime.GOMAXPROCS(0) != 1 {
			t.Fatalf("GOMAXPROCS %d under Hold, want 1", runtime.GOMAXPROCS(0))
		}
		var p sync.Pool
		x := new(int)
		p.Put(x)
		if got := p.Get(); got != x {
			t.Fatalf("Get after Put returned %v, want the value put", got)
		}
	})
	if runtime.GOMAXPROCS(0) != procs || debug.SetGCPercent(gc) != gc {
		t.Fatal("Hold's cleanup did not restore GOMAXPROCS and the collector")
	}
}

// TestDrain: two collections empty a sync.Pool.
func TestDrain(t *testing.T) {
	var p sync.Pool
	p.Put(new(int))
	Drain()
	if p.Get() != nil {
		t.Fatal("a drained pool still holds a value")
	}
}
