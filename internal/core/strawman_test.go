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

// runUnfairStart builds the paper's §3.2 motivating situation: a
// loss-based Cubic flow has the link to itself for 10 s and converges
// high; then four delay-based Vegas flows join. Vegas backs off on the
// standing queue the incumbent maintains, so — exactly as §3.2 argues —
// the late flows "do not have a mechanism to claim their own fair share":
// the strawman merely freezes the unfair allocation, while Cebinae”s tax
// actively redistributes. Returns (incumbent, mean-late) tail goodputs.
func runUnfairStart(t *testing.T, kind string) (float64, float64) {
	t.Helper()
	eng := sim.NewEngine()
	w := netem.NewNetwork(eng)
	const rate = 50e6
	buf := 420 * 1500
	d := netem.BuildDumbbell(w, netem.DumbbellConfig{
		FlowCount:       5,
		BottleneckBps:   rate,
		BottleneckDelay: sim.Duration(100e3),
		RTTs:            []sim.Time{sim.Duration(40e6)},
		BottleneckQdisc: func(dev *netem.Device) netem.Qdisc {
			switch kind {
			case "strawman":
				return core.NewStrawman(eng, rate, buf)
			case "cebinae":
				cq := core.New(eng, rate, buf, core.DefaultParams(rate, buf, sim.Duration(40e6)))
				cq.OnDrain = dev.Kick
				return cq
			default:
				return qdisc.NewFIFO(buf)
			}
		},
		DefaultQdisc: func() netem.Qdisc { return qdisc.NewFIFO(16 << 20) },
	})
	meters := make([]*metrics.FlowMeter, 5)
	for i := 0; i < 5; i++ {
		name := "newreno"
		var start sim.Time
		if i == 0 {
			name = "cubic" // aggressive incumbent
		} else {
			name = "vegas" // meek latecomers
			start = sim.Duration(10e9)
		}
		cc, _ := tcp.NewCC(name)
		key := packet.FlowKey{Src: d.Senders[i].ID, Dst: d.Receivers[i].ID, SrcPort: 1, DstPort: uint16(30 + i), Proto: packet.ProtoTCP}
		tcp.NewConn(eng, d.Senders[i], tcp.Config{Key: key, CC: cc, StartAt: start, MinRTO: sim.Duration(1e9)})
		recv := tcp.NewReceiver(eng, d.Receivers[i], tcp.ReceiverConfig{Key: key})
		m := &metrics.FlowMeter{}
		recv.GoodputAt = m.Record
		meters[i] = m
	}
	dur := sim.Duration(60e9)
	for _, m := range meters {
		m.Mark(dur*2/3, dur)
	}
	eng.Run(dur)
	agg := meters[0].RateOver(dur*2/3, dur) * 8
	var late float64
	for _, m := range meters[1:] {
		late += m.RateOver(dur*2/3, dur) * 8
	}
	return agg, late / 4
}

// TestStrawmanMechanismLimits: the token buckets engage and police while
// the port is saturated.
func TestStrawmanMechanismLimits(t *testing.T) {
	eng := sim.NewEngine()
	w := netem.NewNetwork(eng)
	src, dst := w.NewNode("src"), w.NewNode("dst")
	const rate = 50e6
	dev, rev := w.Connect(src, dst, netem.LinkConfig{RateBps: rate, Delay: sim.Duration(1e6)})
	s := core.NewStrawman(eng, rate, 8<<20)
	dev.SetQdisc(s)
	rev.SetQdisc(qdisc.NewFIFO(1 << 20))
	src.AddRoute(dst.ID, dev)
	key := packet.FlowKey{Src: src.ID, Dst: dst.ID, SrcPort: 1, DstPort: 2, Proto: packet.ProtoTCP}
	var tick func()
	tick = func() {
		src.Inject(&packet.Packet{Flow: key, Size: 1500, PayloadSize: 1448})
		eng.ScheduleCall(sim.Time(1500*8/(1.2*rate)*1e9), sim.Func(tick), nil)
	}
	eng.ScheduleCall(0, sim.Func(tick), nil)
	eng.Run(sim.Duration(2e9))
	if !s.Limiting() {
		t.Fatal("overloaded strawman should be limiting")
	}
	if s.Stats.LBFDrops == 0 {
		t.Fatal("policing drops expected for a blind overload")
	}
}

// TestStrawmanVsCebinaeRedistribution reproduces the paper's §3.2
// argument: after an aggressive flow converges high, late-arriving flows
// under the strawman stay starved (it freezes the unfair allocation),
// while Cebinae's taxation redistributes toward them.
func TestStrawmanVsCebinaeRedistribution(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulations")
	}
	aggS, lateS := runUnfairStart(t, "strawman")
	aggC, lateC := runUnfairStart(t, "cebinae")
	t.Logf("strawman: aggressive=%.1f late=%.1f Mbps | cebinae: aggressive=%.1f late=%.1f Mbps",
		aggS/1e6, lateS/1e6, aggC/1e6, lateC/1e6)

	// Cebinae must leave the late flows materially better off than the
	// strawman does, and cut the incumbent's capture deeper.
	if lateC < lateS*1.2 {
		t.Fatalf("Cebinae should redistribute more than the strawman: late %.2f vs %.2f Mbps",
			lateC/1e6, lateS/1e6)
	}
	if aggC > aggS {
		t.Fatalf("Cebinae should cut the incumbent below the strawman's freeze: %.2f vs %.2f Mbps",
			aggC/1e6, aggS/1e6)
	}
}
