package packet

import (
	"math"
	"reflect"
	"testing"
	"unsafe"

	"cebinae/internal/pooltest"
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

// segments returns the number of segments the stack has made.
func (s *stack[T]) segments() int {
	k := 0
	for k < stackSegs && s.segs[k] != nil {
		k++
	}
	return k
}

// TestPoolFreeListSegments pins the free lists' growth: a pool that comes
// to hold N free packets at once has made at most ⌈log₂(N/256)⌉ + 1
// segments, each kept where it was made — an entry, once written, is
// never copied — and hands its packets back last in, first out.
func TestPoolFreeListSegments(t *testing.T) {
	for _, n := range []int{1, 255, 256, 257, 1000, 70_000} {
		var pool Pool
		pkts := make([]*Packet, n)
		for i := range pkts {
			pkts[i] = pool.Get()
		}
		var first *[]*Packet
		var seg0 *Packet
		for i, p := range pkts {
			pool.Put(p)
			if i == 0 {
				first, seg0 = &pool.free.segs[0], pool.free.segs[0][0]
			}
		}
		bound := 1
		if n > stackBase {
			bound = int(math.Ceil(math.Log2(float64(n)/stackBase))) + 1
		}
		if got := pool.free.segments(); got > bound {
			t.Errorf("%d free packets in %d segments, want ≤ %d", n, got, bound)
		}
		if pool.FreeLen() != n {
			t.Errorf("FreeLen %d after %d Puts", pool.FreeLen(), n)
		}
		if &pool.free.segs[0][0] != &(*first)[0] || seg0 != pkts[0] {
			t.Errorf("%d Puts moved the first segment or its first entry", n)
		}
		for i := n - 1; i >= 0; i-- {
			if p := pool.Get(); p != pkts[i] {
				t.Fatalf("%d free packets: Get %d returned packet %p, want the one Put %d (%p)", n, n-1-i, p, i, pkts[i])
			}
		}
		if pool.FreeLen() != 0 || pool.Reuses != uint64(n) {
			t.Errorf("drained pool: FreeLen %d, reuses %d", pool.FreeLen(), pool.Reuses)
		}
	}
}

// TestPoolFreeListGrowthAllocs: once a pool's free list has held N
// packets, cycling N packets through it allocates nothing, and the first
// fill allocates only the segments — not a copy of the list on every
// doubling. Each fill (AllocsPerRun's warm-up and its measured run) puts
// packets of its own, so no packet is released twice.
func TestPoolFreeListGrowthAllocs(t *testing.T) {
	const n = 10_000
	fresh := make([]Packet, 2*n)
	var pool Pool
	fill := testing.AllocsPerRun(1, func() {
		pool = Pool{}
		for i := range fresh[:n] {
			pool.Put(&fresh[i])
		}
		fresh = fresh[n:]
	})
	// 256, 512, …, 8192: six segments hold 16 128 entries.
	if want := float64(pool.free.segments()); fill != want || want > 6 {
		t.Errorf("filling the free list to %d costs %v allocations, want one per segment (%v)", n, fill, want)
	}
	pkts := make([]*Packet, n)
	cycle := testing.AllocsPerRun(5, func() {
		for i := range pkts {
			pkts[i] = pool.Get()
		}
		for _, p := range pkts {
			pool.Put(p)
		}
	})
	if cycle != 0 {
		t.Errorf("cycling %d packets through a warm free list costs %v allocations, want 0", n, cycle)
	}
}

// TestPoolSackSlab: fresh SACK arrays come sackSlabLen to an allocation,
// distinct, and the counters still say how many were fresh.
func TestPoolSackSlab(t *testing.T) {
	var pool Pool
	allocs := testing.AllocsPerRun(10, func() {
		pool = Pool{}
		for i := 0; i < sackSlabLen; i++ {
			pool.GetSack()
		}
	})
	if allocs != 1 {
		t.Fatalf("%d fresh SACK arrays cost %v allocations, want 1", sackSlabLen, allocs)
	}
	pool = Pool{}
	seen := make(map[*[MaxSack]SackBlock]bool)
	for i := 0; i < 2*sackSlabLen+1; i++ {
		a := pool.GetSack()
		if seen[a] {
			t.Fatalf("GetSack %d returned an array already handed out", i)
		}
		seen[a] = true
	}
	if pool.SackGets != 2*sackSlabLen+1 || pool.SackReuses != 0 {
		t.Fatalf("counters: gets=%d reuses=%d, want %d fresh", pool.SackGets, pool.SackReuses, 2*sackSlabLen+1)
	}
}

// TestPoolRecycle: Recycle hands every packet and SACK slab a pool drew
// back to the process, cleared, and leaves the pool empty; the next pool
// draws those slabs instead of allocating, and every packet and array it
// hands out is zeroed although the run before it wrote them all.
func TestPoolRecycle(t *testing.T) {
	pooltest.Hold(t)
	pooltest.SkipIfPutsDrop(t)
	var a Pool
	var dirty []*Packet
	for i := 0; i < slabLen+1; i++ {
		p := a.Get()
		p.Seq, p.Size, p.ECN, p.NSack = int64(i), 1500, ECNCE, 1
		dirty = append(dirty, p)
	}
	for i := 0; i < sackSlabLen+1; i++ {
		a.GetSack()[0] = SackBlock{Start: 1, End: 2}
	}
	a.Put(dirty[0])
	seen := make(map[*Packet]bool, 2*slabLen)
	for _, s := range append(a.slabs.rest, a.slabs.first) {
		for i := range s {
			seen[&s[i]] = true
		}
	}
	a.Recycle()
	if a.slab != nil || a.slabs.first != nil || a.sackSlabs.first != nil || a.FreeLen() != 0 || a.SackFreeLen() != 0 {
		t.Fatalf("a recycled pool still holds slabs or free lists: %+v", a)
	}
	// Cleared, and under -tags packetdebug poisoned.
	recycled := make([]Packet, 1)
	a.debug.onRecycle(recycled)
	for i, p := range dirty {
		if *p != recycled[0] {
			t.Fatalf("packet %d of a recycled slab not cleared: %+v", i, *p)
		}
	}

	var b Pool
	handed := make(map[*Packet]bool, 2*slabLen)
	for i := 0; i < 2*slabLen; i++ {
		p := b.Get()
		if *p != (Packet{}) || !seen[p] || handed[p] {
			t.Fatalf("Get %d of the next run: recycled=%v, again=%v, %+v; want a zeroed packet of a recycled slab, once", i, seen[p], handed[p], *p)
		}
		handed[p] = true
	}
	for i := 0; i < 2*sackSlabLen; i++ {
		if s := b.GetSack(); *s != ([MaxSack]SackBlock{}) {
			t.Fatalf("GetSack %d of the next run: %v, want a cleared array", i, *s)
		}
	}
	b.Recycle()
	allocs := testing.AllocsPerRun(1, func() {
		b = Pool{}
		for i := 0; i < 2*slabLen; i++ {
			b.Get()
		}
		for i := 0; i < 2*sackSlabLen; i++ {
			b.GetSack()
		}
		b.Recycle()
	})
	// The lists of the second slab of each kind are all that is allocated.
	if allocs != 2 {
		t.Errorf("a run drawing two recycled slabs of each kind allocated %v objects, want 2 (its slab lists)", allocs)
	}
}
