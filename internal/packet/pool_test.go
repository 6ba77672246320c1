package packet

import (
	"reflect"
	"testing"
	"unsafe"
)

func TestPoolReuse(t *testing.T) {
	var pool Pool
	p := pool.Get()
	if pool.Gets != 1 || pool.Reuses != 0 {
		t.Fatalf("fresh pool counters: gets=%d reuses=%d", pool.Gets, pool.Reuses)
	}
	p.Seq = 42
	p.Size = 1500
	p.ECN = ECNCE
	p.SACK = &[MaxSack]SackBlock{{Start: 1, End: 2}}
	p.NSack = 1
	sack := p.SACK
	pool.Put(p)
	if pool.FreeLen() != 1 {
		t.Fatalf("free list length %d after Put, want 1", pool.FreeLen())
	}

	q := pool.Get()
	if q != p {
		t.Fatal("Get after Put must return the recycled packet")
	}
	if pool.Reuses != 1 {
		t.Fatalf("reuse counter %d, want 1", pool.Reuses)
	}
	if q.Seq != 0 || q.Size != 0 || q.ECN != ECNNotECT || q.NSack != 0 {
		t.Fatalf("recycled packet not zeroed: %+v", q)
	}
	if q.SACK != nil {
		t.Fatal("recycled packet still holds its SACK array")
	}
	if pool.SackFreeLen() != 1 {
		t.Fatalf("SACK free list length %d after Put, want 1", pool.SackFreeLen())
	}
	if a := pool.GetSack(); a != sack || pool.SackGets != 1 || pool.SackReuses != 1 {
		t.Fatalf("GetSack after Put: released array %v, gets=%d reuses=%d; want the released array", a == sack, pool.SackGets, pool.SackReuses)
	}
	if a := pool.GetSack(); a == nil || a == sack || pool.SackReuses != 1 {
		t.Fatalf("GetSack from an empty array list: %p, reuses=%d; want a fresh array", a, pool.SackReuses)
	}
}

func TestPoolGetGrows(t *testing.T) {
	var pool Pool
	a, b := pool.Get(), pool.Get()
	if a == b {
		t.Fatal("distinct Gets from an empty pool must return distinct packets")
	}
	pool.Put(a)
	pool.Put(b)
	if pool.FreeLen() != 2 {
		t.Fatalf("free list length %d, want 2", pool.FreeLen())
	}
}

// TestPoolSlab pins the slab: fresh packets are handed out slabLen to an
// allocation, each one zeroed and distinct, and a recycled slab packet
// comes back without its SACK array, which is the next one handed out.
func TestPoolSlab(t *testing.T) {
	var pool Pool
	var last *Packet
	allocs := testing.AllocsPerRun(10, func() {
		pool = Pool{}
		for i := 0; i < slabLen; i++ {
			last = pool.Get()
		}
	})
	if allocs != 1 {
		t.Fatalf("%d Gets from an empty pool cost %v allocations, want 1", slabLen, allocs)
	}
	if last == nil {
		t.Fatal("Get returned nil")
	}

	pool = Pool{}
	seen := make(map[*Packet]bool)
	for i := 0; i < 2*slabLen+1; i++ {
		p := pool.Get()
		if seen[p] {
			t.Fatalf("Get %d returned a packet already handed out", i)
		}
		seen[p] = true
		if !reflect.ValueOf(*p).IsZero() {
			t.Fatalf("fresh packet %d not zeroed: %+v", i, *p)
		}
		p.Seq, p.Size = int64(i), 1500
	}
	if pool.Gets != 2*slabLen+1 || pool.Reuses != 0 {
		t.Fatalf("counters: gets=%d reuses=%d", pool.Gets, pool.Reuses)
	}

	p := pool.Get()
	sack := &[MaxSack]SackBlock{{Start: 1, End: 2}, {Start: 3, End: 4}}
	p.SACK, p.NSack = sack, 2
	pool.Put(p)
	if q := pool.Get(); q != p || q.NSack != 0 || q.SACK != nil {
		t.Fatalf("recycled slab packet: same=%v nsack=%d array %p, want no array", q == p, q.NSack, q.SACK)
	}
	if a := pool.GetSack(); a != sack {
		t.Fatal("the released SACK array is not the next one handed out")
	}
}

// TestPoolSlabAligned pins what the 64-byte Packet buys: a slab of
// slabLen packets is one 32 KiB allocation, which the allocator places
// on a page boundary with no header in front, so every packet of a fresh
// slab starts on its own 64-byte cache line.
func TestPoolSlabAligned(t *testing.T) {
	if size := unsafe.Sizeof(Packet{}) * slabLen; size != 32<<10 {
		t.Fatalf("a slab is %d bytes, want 32 KiB", size)
	}
	var pool Pool
	for i := 0; i < 2*slabLen; i++ {
		if addr := uintptr(unsafe.Pointer(pool.Get())); addr%64 != 0 {
			t.Fatalf("packet %d of a fresh slab at %#x, not 64-byte aligned", i, addr)
		}
	}
}
