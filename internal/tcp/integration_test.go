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

// buildFlows wires count senders/receivers across a dumbbell and returns
// the per-flow goodput meters, each marked for the window [from, to] the
// test reads.
func buildFlows(t *testing.T, eng *sim.Engine, d *netem.Dumbbell, ccs []string, rtts []sim.Time, from, to sim.Time) ([]*tcp.Conn, []*metrics.FlowMeter) {
	t.Helper()
	conns := make([]*tcp.Conn, len(ccs))
	meters := make([]*metrics.FlowMeter, len(ccs))
	for i, name := range ccs {
		cc, ok := tcp.NewCC(name)
		if !ok {
			t.Fatalf("unknown CC %q", name)
		}
		key := packet.FlowKey{
			Src: d.Senders[i].ID, Dst: d.Receivers[i].ID,
			SrcPort: 1000, DstPort: uint16(5000 + i), Proto: packet.ProtoTCP,
		}
		conns[i] = tcp.NewConn(eng, d.Senders[i], tcp.Config{Key: key, CC: cc})
		recv := tcp.NewReceiver(eng, d.Receivers[i], tcp.ReceiverConfig{Key: key})
		m := &metrics.FlowMeter{}
		m.Mark(from, to)
		recv.GoodputAt = m.Record
		meters[i] = m
	}
	return conns, meters
}

func dumbbell(eng *sim.Engine, flows int, rateBps float64, rtts []sim.Time, bufBytes int) *netem.Dumbbell {
	w := netem.NewNetwork(eng)
	return netem.BuildDumbbell(w, netem.DumbbellConfig{
		FlowCount:       flows,
		BottleneckBps:   rateBps,
		BottleneckDelay: sim.Duration(100e3), // 100 µs
		RTTs:            rtts,
		BottleneckQdisc: func(dev *netem.Device) netem.Qdisc { return qdisc.NewFIFO(bufBytes) },
		DefaultQdisc:    func() netem.Qdisc { return qdisc.NewFIFO(16 << 20) },
	})
}

// TestSingleFlowSaturatesLink checks that one NewReno flow fills a 10 Mbps
// bottleneck to ≳85% utilisation within a few seconds.
func TestSingleFlowSaturatesLink(t *testing.T) {
	eng := sim.NewEngine()
	d := dumbbell(eng, 1, 10e6, []sim.Time{sim.Duration(20e6)}, 64*1500)
	dur := sim.Duration(10e9)
	_, meters := buildFlows(t, eng, d, []string{"newreno"}, nil, sim.Duration(2e9), dur)

	eng.Run(dur)

	gp := meters[0].RateOver(sim.Duration(2e9), dur) * 8 // bits/sec
	if gp < 0.85*10e6 {
		t.Fatalf("single NewReno flow goodput = %.2f Mbps, want > 8.5", gp/1e6)
	}
	if gp > 10e6 {
		t.Fatalf("goodput %.2f Mbps exceeds link rate", gp/1e6)
	}
}

// TestEachCCASaturatesLink runs every registered CCA alone on the
// bottleneck and requires high utilisation — a sanity floor for each
// implementation tcp.CCNames lists.
func TestEachCCASaturatesLink(t *testing.T) {
	for _, cc := range tcp.CCNames() {
		cc := cc
		t.Run(cc, func(t *testing.T) {
			eng := sim.NewEngine()
			d := dumbbell(eng, 1, 10e6, []sim.Time{sim.Duration(20e6)}, 64*1500)
			dur := sim.Duration(15e9)
			_, meters := buildFlows(t, eng, d, []string{cc}, nil, sim.Duration(3e9), dur)
			eng.Run(dur)
			gp := meters[0].RateOver(sim.Duration(3e9), dur) * 8
			if gp < 0.80*10e6 {
				t.Fatalf("%s alone: goodput = %.2f Mbps, want > 8", cc, gp/1e6)
			}
		})
	}
}

// TestHomogeneousFlowsAreFair: several identical NewReno flows with equal
// RTTs should converge to a high JFI under FIFO.
func TestHomogeneousFlowsAreFair(t *testing.T) {
	eng := sim.NewEngine()
	n := 4
	d := dumbbell(eng, n, 20e6, []sim.Time{sim.Duration(20e6)}, 128*1500)
	ccs := make([]string, n)
	for i := range ccs {
		ccs[i] = "newreno"
	}
	dur := sim.Duration(30e9)
	_, meters := buildFlows(t, eng, d, ccs, nil, sim.Duration(5e9), dur)
	eng.Run(dur)

	rates := make([]float64, n)
	var total float64
	for i, m := range meters {
		rates[i] = m.RateOver(sim.Duration(5e9), dur)
		total += rates[i] * 8
	}
	if jfi := metrics.JFI(rates); jfi < 0.9 {
		t.Fatalf("homogeneous flows JFI = %.3f (rates %v), want > 0.9", jfi, rates)
	}
	if total < 0.85*20e6 {
		t.Fatalf("aggregate goodput %.2f Mbps too low", total/1e6)
	}
}

// TestRTTUnfairness: two NewReno flows with 1:4 RTT ratio under FIFO — the
// short-RTT flow should get measurably more bandwidth (the classic effect
// Cebinae corrects).
func TestRTTUnfairness(t *testing.T) {
	eng := sim.NewEngine()
	rtts := []sim.Time{sim.Duration(10e6), sim.Duration(40e6)}
	d := dumbbell(eng, 2, 20e6, rtts, 128*1500)
	dur := sim.Duration(30e9)
	_, meters := buildFlows(t, eng, d, []string{"newreno", "newreno"}, nil, sim.Duration(5e9), dur)
	eng.Run(dur)

	short := meters[0].RateOver(sim.Duration(5e9), dur)
	long := meters[1].RateOver(sim.Duration(5e9), dur)
	if short <= long {
		t.Fatalf("expected RTT unfairness: short=%.2f long=%.2f Mbps", short*8/1e6, long*8/1e6)
	}
	if short < 1.3*long {
		t.Logf("note: mild unfairness short=%.2f long=%.2f", short*8/1e6, long*8/1e6)
	}
}

// TestBBRAggression: one BBR flow against eight NewReno flows claims far
// more than its fair share under FIFO — the paper reports a single BBR flow
// ramping to ≈40% of link capacity against any number of loss-based flows
// (Table 2 / Fig. 8a behaviour).
func TestBBRAggression(t *testing.T) {
	eng := sim.NewEngine()
	n := 9
	d := dumbbell(eng, n, 100e6, []sim.Time{sim.Duration(40e6)}, 420*1500)
	ccs := make([]string, n)
	ccs[0] = "bbr"
	for i := 1; i < n; i++ {
		ccs[i] = "newreno"
	}
	dur := sim.Duration(20e9)
	_, meters := buildFlows(t, eng, d, ccs, nil, sim.Duration(4e9), dur)
	eng.Run(dur)

	bbr := meters[0].RateOver(sim.Duration(4e9), dur)
	var total, renoSum float64
	total = bbr
	for _, m := range meters[1:] {
		r := m.RateOver(sim.Duration(4e9), dur)
		renoSum += r
		total += r
	}
	renoAvg := renoSum / float64(n-1)
	if bbr < 2*renoAvg {
		t.Fatalf("expected BBR aggression: bbr=%.2f Mbps, reno avg=%.2f Mbps", bbr*8/1e6, renoAvg*8/1e6)
	}
	if share := bbr / total; share < 0.25 {
		t.Fatalf("BBR share %.1f%% below the paper's ≈40%% claim region", share*100)
	}
}

// TestVegasStarvation: Vegas backs off against a loss-based NewReno flow
// under FIFO with a large buffer (Fig. 7 behaviour).
func TestVegasStarvation(t *testing.T) {
	eng := sim.NewEngine()
	d := dumbbell(eng, 2, 20e6, []sim.Time{sim.Duration(20e6)}, 256*1500)
	dur := sim.Duration(30e9)
	_, meters := buildFlows(t, eng, d, []string{"vegas", "newreno"}, nil, sim.Duration(5e9), dur)
	eng.Run(dur)

	vegas := meters[0].RateOver(sim.Duration(5e9), dur)
	reno := meters[1].RateOver(sim.Duration(5e9), dur)
	if reno < 2*vegas {
		t.Fatalf("expected Vegas starvation: vegas=%.2f reno=%.2f Mbps", vegas*8/1e6, reno*8/1e6)
	}
}

// TestFQCoDelFairness: FQ-CoDel should equalise even a BBR-vs-NewReno mix.
func TestFQCoDelFairness(t *testing.T) {
	eng := sim.NewEngine()
	w := netem.NewNetwork(eng)
	d := netem.BuildDumbbell(w, netem.DumbbellConfig{
		FlowCount:       4,
		BottleneckBps:   20e6,
		BottleneckDelay: sim.Duration(100e3),
		RTTs:            []sim.Time{sim.Duration(20e6)},
		BottleneckQdisc: func(dev *netem.Device) netem.Qdisc {
			return qdisc.NewFQCoDel(eng, 384*1500, 0, qdisc.DefaultCoDelParams())
		},
		DefaultQdisc: func() netem.Qdisc { return qdisc.NewFIFO(16 << 20) },
	})
	dur := sim.Duration(30e9)
	_, meters := buildFlows(t, eng, d, []string{"bbr", "newreno", "cubic", "vegas"}, nil, sim.Duration(5e9), dur)
	eng.Run(dur)

	rates := make([]float64, 4)
	for i, m := range meters {
		rates[i] = m.RateOver(sim.Duration(5e9), dur)
	}
	if jfi := metrics.JFI(rates); jfi < 0.85 {
		t.Fatalf("FQ-CoDel JFI = %.3f (rates %v Mbps)", jfi, []float64{rates[0] * 8 / 1e6, rates[1] * 8 / 1e6, rates[2] * 8 / 1e6, rates[3] * 8 / 1e6})
	}
}

// TestFiniteFlowCompletes: a bounded transfer finishes and reports
// completion exactly once.
func TestFiniteFlowCompletes(t *testing.T) {
	eng := sim.NewEngine()
	d := dumbbell(eng, 1, 10e6, []sim.Time{sim.Duration(20e6)}, 64*1500)
	key := packet.FlowKey{Src: d.Senders[0].ID, Dst: d.Receivers[0].ID, SrcPort: 1, DstPort: 2, Proto: packet.ProtoTCP}
	cc, _ := tcp.NewCC("newreno")
	done := 0
	conn := tcp.NewConn(eng, d.Senders[0], tcp.Config{Key: key, CC: cc, DataLimit: 2 << 20})
	conn.OnFinish = func() { done++ }
	recv := tcp.NewReceiver(eng, d.Receivers[0], tcp.ReceiverConfig{Key: key})
	eng.Run(sim.Duration(60e9))
	if done != 1 {
		t.Fatalf("OnFinish fired %d times, want 1", done)
	}
	if got := recv.Stats.GoodputBytes; got != 2<<20 {
		t.Fatalf("receiver got %d bytes, want %d", got, 2<<20)
	}
}

// TestTCPRTTZeroAlloc pins the full transport timer plane: at steady
// state, a round-trip's worth of simulated TCP — pacing and RTO timer
// re-arms, delayed-ACK arms/cancels, SACK scoreboard updates, sent-record
// recycling — runs without allocating.
func TestTCPRTTZeroAlloc(t *testing.T) {
	const rtt = sim.Time(20e6)
	eng := sim.NewEngine()
	d := dumbbell(eng, 1, 100e6, []sim.Time{rtt}, 450*1500)
	key := packet.FlowKey{Src: d.Senders[0].ID, Dst: d.Receivers[0].ID, SrcPort: 1, DstPort: 2, Proto: packet.ProtoTCP}
	tcp.NewConn(eng, d.Senders[0], tcp.Config{Key: key})
	tcp.NewReceiver(eng, d.Receivers[0], tcp.ReceiverConfig{Key: key, DelAckCount: 2})
	// Warm well past slow start so pools, rings, and the scoreboard have
	// reached their steady-state sizes.
	horizon := sim.Time(2e9)
	eng.Run(horizon)
	allocs := testing.AllocsPerRun(20, func() {
		horizon += rtt
		eng.Run(horizon)
	})
	if allocs != 0 {
		t.Fatalf("one RTT of steady-state TCP allocates %.1f objects, want 0", allocs)
	}
}
