package qdisc

import (
	"cebinae/internal/packet"
	"cebinae/internal/sim"
)

// FQCoDel implements the RFC 8290 scheduler the paper uses as its "FQ"
// baseline: Deficit Round Robin across per-flow queues, CoDel AQM within
// each queue. Matching the paper's configuration ("we change the default
// 1024 queues to 2^32−1 to ensure an ideal per-flow queue"), flows map to
// dedicated queues with no hash collisions.
type FQCoDel struct {
	eng        *sim.Engine
	limitBytes int
	quantum    int
	codel      CoDelParams

	flows map[packet.FlowKey]*fqFlow
	// nextSeq stamps flow queues in creation order so drop-victim ties
	// resolve deterministically (map iteration order is randomised per
	// process, and byte-identical reruns depend on a total order here).
	nextSeq uint64
	// DRR schedule: new flows get one quantum of priority before joining
	// the old-flows round robin, per RFC 8290 §4.2.
	newFlows list
	oldFlows list
	// free chains detached flow queues (through next) for the flow's, or
	// any flow's, next packet to reuse: a queue that drains and refills
	// every round trip costs no allocation.
	free *fqFlow
	// fat is a 4-ary indexed max-heap of exactly the flow queues whose ring
	// is non-empty, ordered by fatter: its root is the overflow drop victim.
	fat []*fqFlow

	bytes   int
	packets int

	// sink takes back the packets discarded after admission (overflow
	// victims other than the packet being enqueued, CoDel drops at
	// dequeue); on a netem device it is the device's, which counts them
	// as drops. Without one, as outside a device, they are left to the
	// garbage collector.
	sink packet.Sink

	ECNMarked uint64
}

type fqFlow struct {
	key     packet.FlowKey
	seq     uint64
	q       packet.Ring
	bytes   int
	deficit int
	codel   codelState
	// where: 0 = detached, 1 = new list, 2 = old list
	where int
	// idx is the queue's slot in FQCoDel.fat while its ring is non-empty.
	idx        int
	next, prev *fqFlow
}

// NewFQCoDel builds the discipline. limitBytes bounds total buffered bytes
// (<=0 means a large default); quantum <= 0 selects one MTU.
func NewFQCoDel(eng *sim.Engine, limitBytes, quantum int, params CoDelParams) *FQCoDel {
	if limitBytes <= 0 {
		limitBytes = 32 << 20
	}
	if quantum <= 0 {
		quantum = 1500
	}
	return &FQCoDel{
		eng:        eng,
		limitBytes: limitBytes,
		quantum:    quantum,
		codel:      params,
		flows:      make(map[packet.FlowKey]*fqFlow),
	}
}

// SetSink installs the sink that takes back the packets the discipline
// discards after admitting them; netem.Device.SetQdisc calls it.
func (f *FQCoDel) SetSink(s packet.Sink) { f.sink = s }

// Enqueue classifies p to its flow queue. On overflow it drops from the
// largest queue (RFC 8290 §4.1.3), which may or may not be p's own: a
// victim other than p goes to the sink, p itself back to the caller.
func (f *FQCoDel) Enqueue(p *packet.Packet) bool {
	fl, ok := f.flows[p.Flow]
	if !ok {
		if fl = f.free; fl != nil {
			// Only the (empty) ring's buffer survives reuse; every other
			// field, CoDel state included, starts as in a fresh queue.
			f.free = fl.next
			*fl = fqFlow{key: p.Flow, seq: f.nextSeq, q: fl.q, codel: codelState{params: f.codel}}
		} else {
			fl = &fqFlow{key: p.Flow, seq: f.nextSeq, codel: codelState{params: f.codel}}
		}
		f.nextSeq++
		f.flows[p.Flow] = fl
	}
	p.EnqueuedAt = f.eng.Local()
	fl.bytes += int(p.Size)
	f.bytes += int(p.Size)
	f.packets++
	fl.q.Push(p)
	if fl.q.Len() == 1 {
		fl.idx = len(f.fat)
		f.fat = append(f.fat, fl)
	}
	f.up(fl.idx)

	if fl.where == 0 {
		fl.deficit = f.quantum
		f.newFlows.pushBack(fl)
		fl.where = 1
	}

	dropped := false
	for f.bytes > f.limitBytes {
		victim := f.fattestFlow()
		if victim == nil {
			break
		}
		dp := victim.q.Pop()
		victim.bytes -= int(dp.Size)
		f.bytes -= int(dp.Size)
		f.packets--
		f.shrunk(victim)
		// The loop may pop back the packet just enqueued: a pointer
		// identity test, which reads nothing of it.
		if dp == p {
			dropped = true
		} else if f.sink != nil {
			f.sink.Release(dp)
		}
	}
	return !dropped
}

// Dequeue runs one DRR scheduling step, applying CoDel to the head of the
// selected flow queue.
func (f *FQCoDel) Dequeue() *packet.Packet {
	for {
		fl := f.selectFlow()
		if fl == nil {
			return nil
		}
		p := f.codelDequeue(fl)
		if p == nil {
			// Queue emptied (possibly by CoDel drops): per RFC 8290, a new
			// flow that empties moves to the old list; an old flow detaches.
			if fl.where == 1 {
				f.newFlows.remove(fl)
				f.oldFlows.pushBack(fl)
				fl.where = 2
			} else {
				f.oldFlows.remove(fl)
				fl.where = 0
				delete(f.flows, fl.key)
				fl.next, f.free = f.free, fl
			}
			continue
		}
		fl.deficit -= int(p.Size)
		return p
	}
}

// selectFlow picks the next flow with positive deficit, preferring the new
// list, recharging deficits as rounds complete.
func (f *FQCoDel) selectFlow() *fqFlow {
	for {
		fl := f.newFlows.front
		fromNew := true
		if fl == nil {
			fl = f.oldFlows.front
			fromNew = false
		}
		if fl == nil {
			return nil
		}
		if fl.deficit <= 0 {
			fl.deficit += f.quantum
			if fromNew {
				f.newFlows.remove(fl)
				f.oldFlows.pushBack(fl)
				fl.where = 2
			} else {
				f.oldFlows.remove(fl)
				f.oldFlows.pushBack(fl)
			}
			continue
		}
		return fl
	}
}

// codelDequeue pops packets from fl, dropping while CoDel says to. ECN-capable
// packets are CE-marked instead of dropped (RFC 8290 §4.2).
func (f *FQCoDel) codelDequeue(fl *fqFlow) *packet.Packet {
	now := f.eng.Local()
	for {
		p := fl.q.Pop()
		if p == nil {
			return nil
		}
		fl.bytes -= int(p.Size)
		f.bytes -= int(p.Size)
		f.packets--
		f.shrunk(fl)
		sojourn := now - p.EnqueuedAt
		if fl.codel.shouldDrop(sojourn, now, fl.bytes) {
			if p.ECN == packet.ECNECT {
				p.ECN = packet.ECNCE
				f.ECNMarked++
				return p
			}
			if f.sink != nil {
				f.sink.Release(p)
			}
			continue
		}
		return p
	}
}

// Len returns the number of queued packets across all flows.
func (f *FQCoDel) Len() int { return f.packets }

// BytesQueued returns the buffered byte total.
func (f *FQCoDel) BytesQueued() int { return f.bytes }

// FlowCount returns the number of active flow queues.
func (f *FQCoDel) FlowCount() int { return len(f.flows) }

// fattestFlow picks the drop victim: the largest backlog, ties broken by
// oldest flow queue — the heap's root. The tie-break matters: equal
// backlogs are the common case with homogeneous flows, and the victim must
// not depend on anything but the queues' contents and creation order.
func (f *FQCoDel) fattestFlow() *fqFlow {
	if len(f.fat) == 0 {
		return nil
	}
	return f.fat[0]
}

// fatter is the heap order: bytes descending, creation seq ascending. Seqs
// are unique, so it is a total order and the root is one queue.
func fatter(a, b *fqFlow) bool {
	return a.bytes > b.bytes || (a.bytes == b.bytes && a.seq < b.seq)
}

// shrunk restores the heap after a packet left fl's ring: an emptied queue
// leaves the heap (its slot taken by the last entry), any other sinks.
func (f *FQCoDel) shrunk(fl *fqFlow) {
	i := fl.idx
	if fl.q.Len() > 0 {
		f.down(i)
		return
	}
	last := len(f.fat) - 1
	moved := f.fat[last]
	f.fat[last] = nil
	f.fat = f.fat[:last]
	if i == last {
		return
	}
	f.fat[i], moved.idx = moved, i
	f.down(i)
	f.up(moved.idx)
}

// up sifts the queue at slot i toward the root while it is fatter than its
// parent.
func (f *FQCoDel) up(i int) {
	fl := f.fat[i]
	for i > 0 {
		parent := (i - 1) / 4
		pf := f.fat[parent]
		if !fatter(fl, pf) {
			break
		}
		f.fat[i], pf.idx = pf, i
		i = parent
	}
	f.fat[i], fl.idx = fl, i
}

// down sifts the queue at slot i toward the leaves while one of its (up to
// four) children is fatter.
func (f *FQCoDel) down(i int) {
	fl := f.fat[i]
	n := len(f.fat)
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		for c := first + 1; c < first+4 && c < n; c++ {
			if fatter(f.fat[c], f.fat[best]) {
				best = c
			}
		}
		bf := f.fat[best]
		if !fatter(bf, fl) {
			break
		}
		f.fat[i], bf.idx = bf, i
		i = best
	}
	f.fat[i], fl.idx = fl, i
}

// list is an intrusive doubly linked list of fqFlows.
type list struct {
	front, back *fqFlow
}

func (l *list) pushBack(fl *fqFlow) {
	fl.next, fl.prev = nil, l.back
	if l.back != nil {
		l.back.next = fl
	} else {
		l.front = fl
	}
	l.back = fl
}

func (l *list) remove(fl *fqFlow) {
	if fl.prev != nil {
		fl.prev.next = fl.next
	} else if l.front == fl {
		l.front = fl.next
	}
	if fl.next != nil {
		fl.next.prev = fl.prev
	} else if l.back == fl {
		l.back = fl.prev
	}
	fl.next, fl.prev = nil, nil
}
