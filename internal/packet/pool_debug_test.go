//go:build packetdebug

package packet

import "testing"

// TestPoolDoubleFreePanics verifies the packetdebug build's ownership
// checking: releasing the same packet — here one from the middle of a
// slab — twice must panic rather than silently corrupt the free list.
func TestPoolDoubleFreePanics(t *testing.T) {
	var pool Pool
	pool.Get()
	p := pool.Get()
	pool.Get()
	pool.Put(p)
	defer func() {
		if recover() == nil {
			t.Fatal("double Put must panic under the packetdebug tag")
		}
	}()
	pool.Put(p)
}
