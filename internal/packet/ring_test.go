package packet

import "testing"

func TestRingGrowth(t *testing.T) {
	var r Ring
	for round := 0; round < 3; round++ {
		for i := 0; i < 1000; i++ {
			r.Push(&Packet{Seq: int64(i)})
		}
		if r.Len() != 1000 || r.Peek().Seq != 0 {
			t.Fatalf("round %d: %d queued, head %v", round, r.Len(), r.Peek())
		}
		for i := 0; i < 1000; i++ {
			if p := r.Pop(); p.Seq != int64(i) {
				t.Fatalf("ring order broken at round %d idx %d", round, i)
			}
		}
		if r.Pop() != nil || r.Peek() != nil {
			t.Fatal("drained ring should pop nil")
		}
	}
}

func TestRingWrapAround(t *testing.T) {
	var r Ring
	// Interleave pushes and pops so head/tail wrap repeatedly.
	seq := int64(0)
	next := int64(0)
	for i := 0; i < 10000; i++ {
		r.Push(&Packet{Seq: seq})
		seq++
		if i%3 != 0 {
			got := r.Pop()
			if got.Seq != next {
				t.Fatalf("wrap order broken: got %d want %d", got.Seq, next)
			}
			next++
		}
	}
}
