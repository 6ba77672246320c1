package tcp_test

import (
	"testing"

	"cebinae/internal/metrics"
	"cebinae/internal/netem"
	"cebinae/internal/packet"
	"cebinae/internal/qdisc"
	"cebinae/internal/sim"
	"cebinae/internal/tcp"
)

// lossRig is a two-node path with a fault-injection shim on the data
// direction: sender → (lossy 10 Mbps link) → receiver.
type lossRig struct {
	eng   *sim.Engine
	conn  *tcp.Conn
	recv  *tcp.Receiver
	lossy *qdisc.Lossy
	meter *metrics.FlowMeter
}

func buildLossRig(t *testing.T, mutate func(l *qdisc.Lossy), cfg tcp.Config) *lossRig {
	t.Helper()
	eng := sim.NewEngine()
	w := netem.NewNetwork(eng)
	a, b := w.NewNode("a"), w.NewNode("b")
	ab, ba := w.Connect(a, b, netem.LinkConfig{RateBps: 10e6, Delay: sim.Duration(5e6)})
	lossy := qdisc.NewLossy(qdisc.NewFIFO(1<<20), 1)
	mutate(lossy)
	ab.SetQdisc(lossy)
	ba.SetQdisc(qdisc.NewFIFO(1 << 20))
	a.AddRoute(b.ID, ab)
	b.AddRoute(a.ID, ba)

	key := packet.FlowKey{Src: a.ID, Dst: b.ID, SrcPort: 1, DstPort: 2, Proto: packet.ProtoTCP}
	cfg.Key = key
	conn := tcp.NewConn(eng, a, cfg)
	recv := tcp.NewReceiver(eng, b, tcp.ReceiverConfig{Key: key})
	m := &metrics.FlowMeter{}
	recv.GoodputAt = m.Record
	return &lossRig{eng: eng, conn: conn, recv: recv, lossy: lossy, meter: m}
}

// TestSingleLossFastRetransmit: one dropped segment is repaired by SACK
// fast retransmit — exactly one retransmission, no timeout.
func TestSingleLossFastRetransmit(t *testing.T) {
	r := buildLossRig(t, func(l *qdisc.Lossy) {
		l.DropNth = map[uint64]bool{30: true}
	}, tcp.Config{DataLimit: 1 << 20})
	r.eng.Run(sim.Duration(30e9))
	if got := r.recv.Stats.GoodputBytes; got != 1<<20 {
		t.Fatalf("transfer incomplete: %d of %d", got, 1<<20)
	}
	if r.conn.Stats.Timeouts != 0 {
		t.Fatalf("single loss must not need an RTO: %+v", r.conn.Stats)
	}
	if r.conn.Stats.Retransmits != 1 {
		t.Fatalf("expected exactly 1 retransmit, got %d", r.conn.Stats.Retransmits)
	}
	if r.conn.Stats.FastRecoveries != 1 {
		t.Fatalf("expected 1 fast recovery, got %d", r.conn.Stats.FastRecoveries)
	}
}

// TestBurstLossRecoversWithoutTimeout: SACK recovery must repair a burst of
// adjacent losses within one recovery episode (classic NewReno would need
// one RTT per hole; RFC 6675-style pipe accounting repairs them together).
func TestBurstLossRecoversWithoutTimeout(t *testing.T) {
	r := buildLossRig(t, func(l *qdisc.Lossy) {
		l.DropNth = map[uint64]bool{}
		for i := uint64(40); i < 48; i++ {
			l.DropNth[i] = true
		}
	}, tcp.Config{DataLimit: 1 << 20})
	r.eng.Run(sim.Duration(30e9))
	if got := r.recv.Stats.GoodputBytes; got != 1<<20 {
		t.Fatalf("transfer incomplete: %d", got)
	}
	if r.conn.Stats.Timeouts != 0 {
		t.Fatalf("burst loss should be SACK-repaired without RTO: %+v", r.conn.Stats)
	}
	if r.conn.Stats.Retransmits != 8 {
		t.Fatalf("expected 8 retransmits, got %d", r.conn.Stats.Retransmits)
	}
	if r.conn.Stats.FastRecoveries != 1 {
		t.Fatalf("one recovery episode expected, got %d", r.conn.Stats.FastRecoveries)
	}
}

// TestScatteredLossesOneWindow: several non-adjacent losses in one window
// are all repaired in a single recovery episode.
func TestScatteredLossesOneWindow(t *testing.T) {
	r := buildLossRig(t, func(l *qdisc.Lossy) {
		l.DropNth = map[uint64]bool{30: true, 34: true, 38: true}
	}, tcp.Config{DataLimit: 1 << 20})
	r.eng.Run(sim.Duration(30e9))
	if got := r.recv.Stats.GoodputBytes; got != 1<<20 {
		t.Fatalf("transfer incomplete: %d", got)
	}
	if r.conn.Stats.Timeouts != 0 || r.conn.Stats.Retransmits != 3 {
		t.Fatalf("scattered losses should cost 3 retransmits, 0 RTO: %+v", r.conn.Stats)
	}
}

// TestLostRetransmitFallsBackToRTO: when the retransmission itself is lost,
// the connection must recover via timeout and still complete.
func TestLostRetransmitFallsBackToRTO(t *testing.T) {
	r := buildLossRig(t, func(l *qdisc.Lossy) {
		// Kill the segment at seq 30·MSS twice: the original and its fast
		// retransmission; only the RTO-driven copy survives.
		l.DropSeqs = map[int64]int{30 * 1448: 2}
		l.DropRetransmits = true
	}, tcp.Config{DataLimit: 1 << 20})
	r.eng.Run(sim.Duration(60e9))
	if got := r.recv.Stats.GoodputBytes; got != 1<<20 {
		t.Fatalf("transfer incomplete after lost retransmit: %d (%+v)", got, r.conn.Stats)
	}
	if r.conn.Stats.Timeouts == 0 {
		t.Fatalf("lost retransmission must eventually RTO: %+v", r.conn.Stats)
	}
}

// TestHeavyRandomLossCompletes: 5% random loss — brutal, but the transfer
// must still complete correctly (integrity via receiver byte count).
func TestHeavyRandomLossCompletes(t *testing.T) {
	r := buildLossRig(t, func(l *qdisc.Lossy) {
		l.DropProb = 0.05
	}, tcp.Config{DataLimit: 512 << 10})
	r.eng.Run(sim.Duration(120e9))
	if got := r.recv.Stats.GoodputBytes; got != 512<<10 {
		t.Fatalf("transfer incomplete under 5%% loss: %d (%+v)", got, r.conn.Stats)
	}
}

// TestAllCCAsSurviveRandomLoss: each CCA completes a transfer under 2%
// random loss — guards the CC/recovery interaction for every algorithm.
func TestAllCCAsSurviveRandomLoss(t *testing.T) {
	for _, name := range tcp.CCNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			cc, _ := tcp.NewCC(name)
			r := buildLossRig(t, func(l *qdisc.Lossy) {
				l.DropProb = 0.02
			}, tcp.Config{DataLimit: 256 << 10, CC: cc})
			r.eng.Run(sim.Duration(120e9))
			if got := r.recv.Stats.GoodputBytes; got != 256<<10 {
				t.Fatalf("%s incomplete under loss: %d (%+v)", name, got, r.conn.Stats)
			}
		})
	}
}

// TestNoSpuriousRetransmits: a clean path must not retransmit at all.
func TestNoSpuriousRetransmits(t *testing.T) {
	r := buildLossRig(t, func(l *qdisc.Lossy) {}, tcp.Config{DataLimit: 1 << 20})
	r.eng.Run(sim.Duration(30e9))
	if r.conn.Stats.Retransmits != 0 || r.conn.Stats.Timeouts != 0 {
		t.Fatalf("clean path retransmitted: %+v", r.conn.Stats)
	}
	if got := r.recv.Stats.GoodputBytes; got != 1<<20 {
		t.Fatalf("transfer incomplete: %d", got)
	}
}

// TestFirstSegmentLost: the very first data packet is dropped; recovery
// must come from the RTO (no dupACKs possible) and the flow completes.
func TestFirstSegmentLost(t *testing.T) {
	r := buildLossRig(t, func(l *qdisc.Lossy) {
		l.DropNth = map[uint64]bool{1: true}
	}, tcp.Config{DataLimit: 64 << 10})
	r.eng.Run(sim.Duration(30e9))
	if got := r.recv.Stats.GoodputBytes; got != 64<<10 {
		t.Fatalf("transfer incomplete: %d (%+v)", got, r.conn.Stats)
	}
}

// TestReorderingTolerated: mild reordering (a delayed packet overtaken by
// two later ones) must not trigger fast retransmit (needs 3 dupACKs).
func TestReorderingTolerated(t *testing.T) {
	// Simulate reordering by dropping nothing but injecting the segments
	// through a path whose jitter can reorder at most adjacent packets —
	// the sender's own jitter is order-preserving, so instead we verify
	// the dupACK threshold directly: two dupACKs must not enter recovery.
	eng := sim.NewEngine()
	w := netem.NewNetwork(eng)
	a, b := w.NewNode("a"), w.NewNode("b")
	ab, ba := w.Connect(a, b, netem.LinkConfig{RateBps: 10e6, Delay: sim.Duration(5e6)})
	ab.SetQdisc(qdisc.NewFIFO(1 << 20))
	ba.SetQdisc(qdisc.NewFIFO(1 << 20))
	a.AddRoute(b.ID, ab)
	b.AddRoute(a.ID, ba)
	key := packet.FlowKey{Src: a.ID, Dst: b.ID, SrcPort: 1, DstPort: 2, Proto: packet.ProtoTCP}
	conn := tcp.NewConn(eng, a, tcp.Config{Key: key, DataLimit: 1 << 30})
	tcp.NewReceiver(eng, b, tcp.ReceiverConfig{Key: key})
	eng.Run(sim.Duration(1e9))

	// Deliver two duplicate ACKs by hand: no recovery may start.
	before := conn.Stats.FastRecoveries
	for i := 0; i < 2; i++ {
		conn.Deliver(&packet.Packet{Flow: key.Reverse(), Flags: packet.FlagACK, Ack: conn.Delivered()})
	}
	if conn.Stats.FastRecoveries != before {
		t.Fatal("two dupACKs must not trigger fast retransmit")
	}
}
