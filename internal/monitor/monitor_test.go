package monitor

import (
	"strings"
	"testing"

	"cebinae/internal/app"
	"cebinae/internal/core"
	"cebinae/internal/netem"
	"cebinae/internal/packet"
	"cebinae/internal/qdisc"
	"cebinae/internal/sim"
)

func buildWatchedLink(useCebinae bool) (*sim.Engine, *netem.Node, *netem.Node, *netem.Device) {
	eng := sim.NewEngine()
	w := netem.NewNetwork(eng)
	a, b := w.NewNode("a"), w.NewNode("b")
	rate := 50e6
	ab, ba := w.Connect(a, b, netem.LinkConfig{RateBps: rate, Delay: sim.Duration(1e6)})
	if useCebinae {
		cq := core.New(eng, rate, 128*1500, core.DefaultParams(rate, 128*1500, sim.Duration(20e6)))
		cq.OnDrain = ab.Kick
		ab.SetQdisc(cq)
	} else {
		ab.SetQdisc(qdisc.NewFIFO(128 * 1500))
	}
	ba.SetQdisc(qdisc.NewFIFO(1 << 20))
	a.AddRoute(b.ID, ab)
	b.AddRoute(a.ID, ba)
	return eng, a, b, ab
}

type sink struct{}

func (sink) Deliver(p *packet.Packet) {}

func TestMonitorSamplesThroughput(t *testing.T) {
	eng, a, b, dev := buildWatchedLink(false)
	key := packet.FlowKey{Src: a.ID, Dst: b.ID, SrcPort: 1, DstPort: 2, Proto: packet.ProtoUDP}
	b.Register(key, sink{})
	app.NewCBR(eng, a, key, 20e6, 0)
	m := Watch(eng, dev, sim.Duration(100e6))
	eng.Run(sim.Duration(2e9))

	if len(m.Samples) < 18 {
		t.Fatalf("expected ≈20 samples, got %d", len(m.Samples))
	}
	util := m.MeanUtilisation()
	if util < 0.35 || util > 0.45 {
		t.Fatalf("20 Mbps on 50 Mbps should be 40%% utilisation, got %.2f", util)
	}
	if !strings.Contains(m.Render(), "tx[Mbps]") {
		t.Fatal("renderer broken")
	}
}

func TestMonitorCapturesCebinaeState(t *testing.T) {
	eng, a, b, dev := buildWatchedLink(true)
	key := packet.FlowKey{Src: a.ID, Dst: b.ID, SrcPort: 1, DstPort: 2, Proto: packet.ProtoUDP}
	b.Register(key, sink{})
	app.NewCBR(eng, a, key, 60e6, 0) // overload
	m := Watch(eng, dev, sim.Duration(100e6))
	eng.Run(sim.Duration(2e9))

	if m.SaturatedFraction() == 0 {
		t.Fatal("overloaded Cebinae port should show saturated samples")
	}
	sawTop := false
	for _, s := range m.Samples {
		if s.TopFlows > 0 {
			sawTop = true
		}
	}
	if !sawTop {
		t.Fatal("⊤ classification never observed")
	}
	if m.PeakQueueBytes() == 0 {
		t.Fatal("queue depth never observed")
	}
}

func TestMonitorStop(t *testing.T) {
	eng, _, _, dev := buildWatchedLink(false)
	m := Watch(eng, dev, sim.Duration(100e6))
	eng.AtCall(sim.Duration(500e6), sim.Func(m.Stop), nil)
	eng.Run(sim.Duration(2e9))
	if len(m.Samples) > 6 {
		t.Fatalf("stop did not halt sampling: %d samples", len(m.Samples))
	}
}
