package tcp_test

import (
	"testing"

	"cebinae/internal/netem"
	"cebinae/internal/packet"
	"cebinae/internal/qdisc"
	"cebinae/internal/sim"
	"cebinae/internal/tcp"
)

// edgePath builds a fast clean a→b path and returns the endpoints.
func edgePath(cfg tcp.Config) (*sim.Engine, *tcp.Conn, *tcp.Receiver) {
	eng := sim.NewEngine()
	w := netem.NewNetwork(eng)
	a, b := w.NewNode("a"), w.NewNode("b")
	ab, ba := w.Connect(a, b, netem.LinkConfig{RateBps: 100e6, Delay: sim.Duration(2e6)})
	ab.SetQdisc(qdisc.NewFIFO(1 << 20))
	ba.SetQdisc(qdisc.NewFIFO(1 << 20))
	a.AddRoute(b.ID, ab)
	b.AddRoute(a.ID, ba)
	key := packet.FlowKey{Src: a.ID, Dst: b.ID, SrcPort: 1, DstPort: 2, Proto: packet.ProtoTCP}
	cfg.Key = key
	conn := tcp.NewConn(eng, a, cfg)
	recv := tcp.NewReceiver(eng, b, tcp.ReceiverConfig{Key: key})
	return eng, conn, recv
}

// TestSubMSSFinalSegment: a transfer that is not a multiple of the MSS must
// deliver the exact byte count (short final segment).
func TestSubMSSFinalSegment(t *testing.T) {
	const size = 10*1448 + 123
	eng, conn, recv := edgePath(tcp.Config{DataLimit: size})
	done := false
	conn.OnFinish = func() { done = true }
	eng.Run(sim.Duration(5e9))
	if !done {
		t.Fatal("transfer did not finish")
	}
	if got := recv.Stats.GoodputBytes; got != size {
		t.Fatalf("delivered %d bytes, want %d", got, size)
	}
}

// TestTinyTransfer: a single-segment transfer completes.
func TestTinyTransfer(t *testing.T) {
	eng, conn, recv := edgePath(tcp.Config{DataLimit: 100})
	done := 0
	conn.OnFinish = func() { done++ }
	eng.Run(sim.Duration(5e9))
	if done != 1 || recv.Stats.GoodputBytes != 100 {
		t.Fatalf("tiny transfer broken: done=%d bytes=%d", done, recv.Stats.GoodputBytes)
	}
}

// TestStartAtDelaysFirstPacket: a conn with StartAt must not emit earlier.
func TestStartAtDelaysFirstPacket(t *testing.T) {
	eng, conn, recv := edgePath(tcp.Config{DataLimit: 1 << 16, StartAt: sim.Duration(2e9)})
	eng.Run(sim.Duration(1.9e9))
	if conn.Stats.SentPackets != 0 {
		t.Fatalf("sent %d packets before StartAt", conn.Stats.SentPackets)
	}
	eng.Run(sim.Duration(6e9))
	if recv.Stats.GoodputBytes != 1<<16 {
		t.Fatalf("delayed transfer incomplete: %d", recv.Stats.GoodputBytes)
	}
}

// TestMaxCwndCapRespected: the pipe never exceeds the configured cap.
func TestMaxCwndCapRespected(t *testing.T) {
	cap := 8.0 * 1448
	eng, conn, _ := edgePath(tcp.Config{MaxCwndBytes: cap})
	for i := 1; i <= 40; i++ {
		eng.AtCall(sim.Time(i)*sim.Duration(100e6), sim.Func(func() {
			if float64(conn.InFlight()) > cap+1448 {
				t.Fatalf("pipe %d exceeds cap %v", conn.InFlight(), cap)
			}
		}), nil)
	}
	eng.Run(sim.Duration(4e9))
}

// TestDelAckCoalescing: with DelAckCount=2, the receiver sends roughly one
// ACK per two segments on a clean path.
func TestDelAckCoalescing(t *testing.T) {
	eng := sim.NewEngine()
	w := netem.NewNetwork(eng)
	a, b := w.NewNode("a"), w.NewNode("b")
	ab, ba := w.Connect(a, b, netem.LinkConfig{RateBps: 100e6, Delay: sim.Duration(2e6)})
	ab.SetQdisc(qdisc.NewFIFO(1 << 20))
	ba.SetQdisc(qdisc.NewFIFO(1 << 20))
	a.AddRoute(b.ID, ab)
	b.AddRoute(a.ID, ba)
	key := packet.FlowKey{Src: a.ID, Dst: b.ID, SrcPort: 1, DstPort: 2, Proto: packet.ProtoTCP}
	conn := tcp.NewConn(eng, a, tcp.Config{Key: key, DataLimit: 2 << 20})
	recv := tcp.NewReceiver(eng, b, tcp.ReceiverConfig{Key: key, DelAckCount: 2})
	eng.Run(sim.Duration(10e9))
	if recv.Stats.GoodputBytes != 2<<20 {
		t.Fatalf("transfer incomplete: %d (%+v)", recv.Stats.GoodputBytes, conn.Stats)
	}
	ratio := float64(recv.Stats.RxPackets) / float64(recv.Stats.AcksSent)
	if ratio < 1.5 {
		t.Fatalf("delayed ACKs not coalescing: %0.f packets per ACK", ratio)
	}
}

// TestStaleAckIgnored: an ACK above snd_nxt (corrupt) must not advance
// state or crash.
func TestStaleAckIgnored(t *testing.T) {
	eng, conn, _ := edgePath(tcp.Config{DataLimit: 1 << 20})
	eng.Run(sim.Duration(100e6))
	key := conn.Key()
	conn.Deliver(&packet.Packet{Flow: key.Reverse(), Flags: packet.FlagACK, Ack: 1 << 40})
	eng.Run(sim.Duration(3e9))
	if conn.Delivered() > 1<<20 {
		t.Fatalf("corrupt ACK advanced delivery: %d", conn.Delivered())
	}
}

// TestNonAckPacketIgnored: garbage packets to the sender's demux are safe.
func TestNonAckPacketIgnored(t *testing.T) {
	eng, conn, _ := edgePath(tcp.Config{DataLimit: 1 << 18})
	key := conn.Key()
	conn.Deliver(&packet.Packet{Flow: key.Reverse(), PayloadSize: 100, Size: 152})
	eng.Run(sim.Duration(3e9))
	if conn.Delivered() != 1<<18 {
		t.Fatalf("transfer disturbed by garbage packet: %d", conn.Delivered())
	}
}
