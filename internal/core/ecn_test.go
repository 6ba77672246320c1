package core_test

import (
	"testing"

	"cebinae/internal/core"
	"cebinae/internal/metrics"
	"cebinae/internal/netem"
	"cebinae/internal/packet"
	"cebinae/internal/qdisc"
	"cebinae/internal/sim"
	"cebinae/internal/tcp"
)

// TestCebinaeECNPathWithDCTCP drives a DCTCP flow (ECN-capable because
// DCTCP reacts to echoes) against a NewReno flow through Cebinae: the
// LBF's CE marks on delayed packets (Fig. 5 line 26) must reach the DCTCP
// sender as ECN echoes and modulate its window — the pre-loss congestion
// signal the paper adds for delay/ECN-based algorithms.
func TestCebinaeECNPathWithDCTCP(t *testing.T) {
	eng := sim.NewEngine()
	w := netem.NewNetwork(eng)
	rate := 50e6
	buf := 420 * 1500
	var cq *core.Qdisc
	d := netem.BuildDumbbell(w, netem.DumbbellConfig{
		FlowCount:       2,
		BottleneckBps:   rate,
		BottleneckDelay: sim.Duration(100e3),
		RTTs:            []sim.Time{sim.Duration(20e6)},
		BottleneckQdisc: func(dev *netem.Device) netem.Qdisc {
			cq = core.New(eng, rate, buf, core.DefaultParams(rate, buf, sim.Duration(20e6)))
			cq.OnDrain = dev.Kick
			return cq
		},
		DefaultQdisc: func() netem.Qdisc { return qdisc.NewFIFO(16 << 20) },
	})

	conns := make([]*tcp.Conn, 2)
	meters := make([]*metrics.FlowMeter, 2)
	recvs := make([]*tcp.Receiver, 2)
	for i, name := range []string{"dctcp", "newreno"} {
		cc, _ := tcp.NewCC(name)
		key := packet.FlowKey{Src: d.Senders[i].ID, Dst: d.Receivers[i].ID, SrcPort: 1, DstPort: uint16(100 + i), Proto: packet.ProtoTCP}
		conns[i] = tcp.NewConn(eng, d.Senders[i], tcp.Config{Key: key, CC: cc})
		recvs[i] = tcp.NewReceiver(eng, d.Receivers[i], tcp.ReceiverConfig{Key: key})
		m := &metrics.FlowMeter{}
		recvs[i].GoodputAt = m.Record
		meters[i] = m
	}
	dur := sim.Duration(30e9)
	for _, m := range meters {
		m.Mark(dur/3, dur)
	}
	eng.Run(dur)

	if cq.Stats.ECNMarked == 0 {
		t.Fatalf("Cebinae should CE-mark delayed ECT packets: %+v", cq.Stats)
	}
	if recvs[0].Stats.CEMarks == 0 {
		t.Fatal("CE marks must survive to the receiver")
	}
	if conns[0].Stats.ECEReductions == 0 {
		t.Fatal("ECN echoes must reach the DCTCP sender")
	}
	// Both flows must still make solid progress.
	for i, m := range meters {
		if gp := m.RateOver(dur/3, dur) * 8; gp < 0.1*rate {
			t.Fatalf("flow %d starved: %.2f Mbps", i, gp/1e6)
		}
	}
}

// TestDCTCPAlphaTracksMarking: with every ACK carrying ECE, α must converge
// towards 1; with none, towards 0.
func TestDCTCPAlphaTracksMarking(t *testing.T) {
	cc, _ := tcp.NewCC("dctcp")
	d := cc.(*tcp.DCTCP)
	// Drive the estimator through the public OnAck/OnECE hooks on a
	// detached connection.
	eng := sim.NewEngine()
	w := netem.NewNetwork(eng)
	n := w.NewNode("x")
	key := packet.FlowKey{Src: n.ID, Dst: 99, SrcPort: 1, DstPort: 2, Proto: packet.ProtoTCP}
	conn := tcp.NewConn(eng, n, tcp.Config{Key: key, CC: cc})
	_ = conn

	// All marked: alpha → 1.
	for i := 0; i < 400; i++ {
		d.OnECE(conn, tcp.RateSample{AckedBytes: 1448, Delivered: int64(i * 1448), InFlight: 1448})
	}
	if d.Alpha() < 0.9 {
		t.Fatalf("α should approach 1 under full marking: %v", d.Alpha())
	}
	// None marked: alpha decays toward 0.
	for i := 400; i < 1200; i++ {
		d.OnAck(conn, tcp.RateSample{AckedBytes: 1448, Delivered: int64(i * 1448), InFlight: 1448})
	}
	if d.Alpha() > 0.1 {
		t.Fatalf("α should decay without marking: %v", d.Alpha())
	}
}
