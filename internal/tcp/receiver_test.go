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

// TestReusedAckKeepsSackArray: an ACK packet that carried blocks goes back
// to the pool with its array; the next ACK drawn from the pool is the same
// packet, arrives with NSack == 0 once the holes are filled, and still
// holds that array.
func TestReusedAckKeepsSackArray(t *testing.T) {
	eng, r, tap := tappedReceiver()
	segment(eng, r, 1)
	if tap.nsack != 1 || tap.sack == nil {
		t.Fatalf("out-of-order ACK: %d blocks, array %p; want 1 block", tap.nsack, tap.sack)
	}
	pkt, sack := tap.pkt, tap.sack
	segment(eng, r, 0)
	if tap.acks != 2 || tap.pkt != pkt {
		t.Fatalf("the in-order ACK is not the recycled packet (%d ACKs)", tap.acks)
	}
	if tap.nsack != 0 || tap.sack != sack {
		t.Fatalf("recycled ACK: %d blocks, array kept %v; want 0 blocks and the same array", tap.nsack, tap.sack == sack)
	}
}

// TestSendAckZeroAlloc: once every pooled packet holds a SACK array, an
// ACK carrying blocks allocates nothing.
func TestSendAckZeroAlloc(t *testing.T) {
	eng, r, tap := tappedReceiver()
	for _, i := range []int64{2, 4, 6, 8} {
		segment(eng, r, i)
	}
	allocs := testing.AllocsPerRun(100, func() {
		r.sendAck()
		eng.Run(eng.Now() + sim.Duration(10e6))
	})
	if allocs != 0 || tap.nsack != packet.MaxSack {
		t.Fatalf("an ACK with %d blocks allocates %.1f objects, want 0", tap.nsack, allocs)
	}
}
