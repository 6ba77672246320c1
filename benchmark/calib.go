package main

import "time"

// Host-speed probe. The hosts this benchmark runs on are shared: for
// spells of ten seconds to minutes a neighbour on the same cache and
// memory slows the simulator by 10–50 % (an arithmetic loop barely
// notices; the simulator's event heap, like any pointer-chasing code,
// does). A 7 s run's repeats all sit inside one spell, so no statistic
// over them removes it: raw wall-time medians of ten runs spread 12–35 %
// (README, Steadiness), at times wider than the widest bound the contract
// allows. So a fixed kernel — a binary event heap over a 64 MB arena, the
// simulator's dominant access pattern, touching no repository code — is
// timed in a child process of its own before and after every timed child,
// and the child's host times are divided by how much slower than nominal
// the kernel ran. Measured on 99 alternating kernel/workload pairs: raw
// wall time spreads 7.6 % (interquartile, share of median), scaled 4.0 %.

const (
	probeOps = 2_000_000
	// probeNominalNs is the kernel's cost per operation on a quiet host of
	// the kind this was written on; a host-speed factor of 1 means "as
	// fast as that". It only fixes the unit: on other hardware, or under
	// another toolchain, the factor is some other constant on both sides
	// of any comparison.
	probeNominalNs = 165.0
	probeArena     = 1 << 21 // events; 64 MB
	probeHeap      = 1 << 16
)

type probeEvent struct {
	at  int64
	seq uint64
	pad [2]uint64
}

func probeLess(a, b *probeEvent) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

func probeSiftDown(h []*probeEvent, i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		m := l
		if r := l + 1; r < len(h) && probeLess(h[r], h[l]) {
			m = r
		}
		if !probeLess(h[m], h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// hostProbe times probeOps pop-min/push cycles and returns ns per
// operation.
func hostProbe() float64 {
	rng := uint64(88172645463325252)
	rand := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	arena := make([]probeEvent, probeArena)
	for i := range arena {
		arena[i].seq = 1 // fault every page in before anything is timed
	}
	heap := make([]*probeEvent, probeHeap)
	for i := range heap {
		e := &arena[rand()%probeArena]
		e.at = int64(rand() % 1e9)
		heap[i] = e
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		probeSiftDown(heap, i)
	}
	t0 := time.Now()
	for k := 0; k < probeOps; k++ {
		e := &arena[rand()%probeArena]
		e.at = heap[0].at + int64(rand()%1e6)
		e.seq = uint64(k)
		heap[0] = e
		probeSiftDown(heap, 0)
	}
	return float64(time.Since(t0).Nanoseconds()) / probeOps
}
