package tcp

import (
	"testing"

	"cebinae/internal/netem"
	"cebinae/internal/packet"
	"cebinae/internal/qdisc"
	"cebinae/internal/sim"
)

// ackTap stands in for the sender: it records the last ACK a receiver's
// node sends back, without allocating, before the network returns the
// packet to its pool.
type ackTap struct {
	pkt    *packet.Packet
	sack   *[packet.MaxSack]packet.SackBlock
	blocks [packet.MaxSack]packet.SackBlock
	nsack  int
	acks   int
}

func (a *ackTap) Deliver(p *packet.Packet) {
	a.pkt, a.sack, a.nsack = p, p.SACK, int(p.NSack)
	if p.NSack > 0 {
		a.blocks = *p.SACK
	}
	a.acks++
}

// tappedReceiver builds a receiver on b whose ACKs cross a 1 ms link to a,
// where tap reads them. The test hands data segments to the receiver's
// Deliver and runs the engine to carry each ACK back.
func tappedReceiver() (*sim.Engine, *Receiver, *ackTap) {
	eng := sim.NewEngine()
	w := netem.NewNetwork(eng)
	a, b := w.NewNode("a"), w.NewNode("b")
	ab, ba := w.Connect(a, b, netem.LinkConfig{RateBps: 1e9, Delay: sim.Duration(1e6)})
	ab.SetQdisc(qdisc.NewFIFO(1 << 20))
	ba.SetQdisc(qdisc.NewFIFO(1 << 20))
	b.AddRoute(a.ID, ba)
	key := packet.FlowKey{Src: a.ID, Dst: b.ID, SrcPort: 1, DstPort: 2, Proto: packet.ProtoTCP}
	r := NewReceiver(eng, b, ReceiverConfig{Key: key})
	tap := &ackTap{}
	a.Register(key.Reverse(), tap)
	return eng, r, tap
}

// segment hands the receiver the i-th full segment and carries its ACK
// back to the tap.
func segment(eng *sim.Engine, r *Receiver, i int64) {
	r.Deliver(&packet.Packet{Flow: r.cfg.Key, Seq: i * packet.MSS, PayloadSize: packet.MSS, Size: packet.MSS + packet.HeaderBytes})
	eng.Run(eng.Now() + sim.Duration(10e6))
}

// TestSendAckCapsSackAtThree: with five out-of-order intervals buffered,
// an ACK carries exactly the three lowest, lowest first.
func TestSendAckCapsSackAtThree(t *testing.T) {
	eng, r, tap := tappedReceiver()
	for _, i := range []int64{2, 4, 6, 8, 10} {
		segment(eng, r, i)
	}
	if got := len(r.ooo.ivs); got != 5 {
		t.Fatalf("receiver holds %d out-of-order intervals, want 5", got)
	}
	if tap.acks != 5 || tap.nsack != packet.MaxSack {
		t.Fatalf("%d ACKs, the last with %d blocks; want 5 ACKs, the last with %d", tap.acks, tap.nsack, packet.MaxSack)
	}
	for k, i := range []int64{2, 4, 6} {
		want := packet.SackBlock{Start: i * packet.MSS, End: (i + 1) * packet.MSS}
		if tap.blocks[k] != want {
			t.Fatalf("block %d = %+v, want %+v", k, tap.blocks[k], want)
		}
	}
}

// TestDeliveredAckSackArrayReturnsToPool: an ACK that carried blocks
// gives its array back to the network's pool when it is delivered; an ACK
// without blocks holds none, and the next ACK with blocks carries the
// released array again.
func TestDeliveredAckSackArrayReturnsToPool(t *testing.T) {
	eng, r, tap := tappedReceiver()
	pool := r.node.Network().Pool()
	segment(eng, r, 1)
	if tap.nsack != 1 || tap.sack == nil {
		t.Fatalf("out-of-order ACK: %d blocks, array %p; want 1 block", tap.nsack, tap.sack)
	}
	sack := tap.sack
	if pool.SackFreeLen() != 1 || tap.pkt.SACK != nil {
		t.Fatalf("delivered ACK: %d arrays free, packet still holds %p; want its array back in the pool", pool.SackFreeLen(), tap.pkt.SACK)
	}
	segment(eng, r, 0)
	if tap.acks != 2 || tap.nsack != 0 || tap.sack != nil {
		t.Fatalf("in-order ACK %d: %d blocks, array %p; want no blocks and no array", tap.acks, tap.nsack, tap.sack)
	}
	segment(eng, r, 3)
	if tap.nsack != 1 || tap.sack != sack {
		t.Fatalf("next out-of-order ACK: %d blocks, released array reused %v; want 1 block in the released array", tap.nsack, tap.sack == sack)
	}
	if pool.SackGets != 2 || pool.SackReuses != 1 || pool.SackFreeLen() != 1 {
		t.Fatalf("pool SACK counters: gets=%d reuses=%d free=%d; want 2, 1, 1", pool.SackGets, pool.SackReuses, pool.SackFreeLen())
	}
}

// TestSendAckZeroAlloc: once the pool holds a free SACK array, an ACK
// carrying blocks allocates nothing.
func TestSendAckZeroAlloc(t *testing.T) {
	eng, r, tap := tappedReceiver()
	for _, i := range []int64{2, 4, 6, 8} {
		segment(eng, r, i)
	}
	if free := r.node.Network().Pool().SackFreeLen(); free != 1 {
		t.Fatalf("%d SACK arrays free after the ACKs drained, want 1", free)
	}
	allocs := testing.AllocsPerRun(100, func() {
		r.sendAck()
		eng.Run(eng.Now() + sim.Duration(10e6))
	})
	if allocs != 0 || tap.nsack != packet.MaxSack {
		t.Fatalf("an ACK with %d blocks allocates %.1f objects, want 0", tap.nsack, allocs)
	}
}

// sackCounter is the ACK path's FIFO, counting each ACK with blocks the
// receiver sends into it as one more in flight.
type sackCounter struct {
	*qdisc.FIFO
	inFlight, peak int
}

func (q *sackCounter) Enqueue(p *packet.Packet) bool {
	if p.NSack > 0 {
		q.inFlight++
		q.peak = max(q.peak, q.inFlight)
	}
	return q.FIFO.Enqueue(p)
}

// sackLanding is the host the ACKs are addressed to: it counts each ACK
// with blocks as landed and hands it to the sender.
type sackLanding struct {
	conn *Conn
	q    *sackCounter
}

func (l *sackLanding) Deliver(p *packet.Packet) {
	if p.NSack > 0 {
		l.q.inFlight--
	}
	l.conn.Deliver(p)
}

// TestSackArraysFollowAcksInFlight: on a lossy transfer the receiver
// sends many ACKs with blocks, yet the SACK arrays the network allocates
// never outnumber the most such ACKs in flight at once, and once the run
// drains every array is back on the pool's free list. The sender sits
// on a; its ACKs are addressed to a separate host x on the path back, so
// the test can see them land.
func TestSackArraysFollowAcksInFlight(t *testing.T) {
	eng := sim.NewEngine()
	w := netem.NewNetwork(eng)
	a, b, x := w.NewNode("a"), w.NewNode("b"), w.NewNode("x")
	ab, ba := w.Connect(a, b, netem.LinkConfig{RateBps: 10e6, Delay: sim.Duration(5e6)})
	bx, xb := w.Connect(b, x, netem.LinkConfig{RateBps: 10e6, Delay: sim.Duration(5e6)})
	lossy := qdisc.NewLossy(qdisc.NewFIFO(1<<20), 3)
	lossy.DropProb = 0.03
	ab.SetQdisc(lossy)
	acks := &sackCounter{FIFO: qdisc.NewFIFO(1 << 20)}
	bx.SetQdisc(acks)
	ba.SetQdisc(qdisc.NewFIFO(1 << 20))
	xb.SetQdisc(qdisc.NewFIFO(1 << 20))
	a.AddRoute(b.ID, ab)
	b.AddRoute(x.ID, bx)

	const size = 4 << 20
	key := packet.FlowKey{Src: x.ID, Dst: b.ID, SrcPort: 1, DstPort: 2, Proto: packet.ProtoTCP}
	conn := NewConn(eng, a, Config{Key: key, DataLimit: size})
	r := NewReceiver(eng, b, ReceiverConfig{Key: key})
	x.Register(key.Reverse(), &sackLanding{conn: conn, q: acks})
	eng.Run(sim.Duration(60e9))

	pool := w.Pool()
	allocated := pool.SackGets - pool.SackReuses
	t.Logf("%d ACKs, %d with blocks; %d arrays allocated, at most %d ACKs with blocks in flight",
		r.Stats.AcksSent, pool.SackGets, allocated, acks.peak)
	switch {
	case r.Stats.GoodputBytes != size:
		t.Fatalf("transfer incomplete: %d of %d bytes", r.Stats.GoodputBytes, size)
	case ab.Stats().DropPackets == 0 || bx.Stats().DropPackets != 0:
		t.Fatalf("want data losses and no ACK losses: %d data, %d ACKs dropped", ab.Stats().DropPackets, bx.Stats().DropPackets)
	case pool.SackGets < 100 || acks.peak == 0:
		t.Fatalf("only %d ACKs carried blocks (peak %d in flight); the fixture must recover from many losses", pool.SackGets, acks.peak)
	case acks.inFlight != 0:
		t.Fatalf("%d ACKs with blocks still in flight after the run drained", acks.inFlight)
	case pool.SackFreeLen() != int(allocated):
		t.Fatalf("%d of %d SACK arrays back on the free list after the run drained", pool.SackFreeLen(), allocated)
	case allocated > uint64(acks.peak):
		t.Fatalf("%d SACK arrays allocated for at most %d ACKs with blocks in flight", allocated, acks.peak)
	}
}
