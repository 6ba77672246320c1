package fluid

import (
	"testing"

	"cebinae/internal/app"
	"cebinae/internal/core"
	"cebinae/internal/netem"
	"cebinae/internal/packet"
	"cebinae/internal/qdisc"
	"cebinae/internal/sim"
)

// buildCebinaeLink is buildCBRLink with the forward qdisc swapped for a
// live Cebinae port, so the controller's egress feed (WatchCebinae →
// FluidAdvance) is exercised against real rotations — which are pinned
// deadlines every skip chain must stop at.
func buildCebinaeLink() (*sim.Engine, *netem.Device, *core.Qdisc, packet.FlowKey) {
	eng := sim.NewEngine()
	w := netem.NewNetwork(eng)
	a, b := w.NewNode("a"), w.NewNode("b")
	ab, ba := w.Connect(a, b, netem.LinkConfig{RateBps: 50e6, Delay: sim.Duration(1e6)})
	cq := core.New(eng, 50e6, 128*1500, core.DefaultParams(50e6, 128*1500, sim.Duration(2e6)))
	cq.OnDrain = ab.Kick
	ab.SetQdisc(cq)
	ba.SetQdisc(qdisc.NewFIFO(1 << 20))
	a.AddRoute(b.ID, ab)
	b.AddRoute(a.ID, ba)
	key := packet.FlowKey{Src: a.ID, Dst: b.ID, SrcPort: 1, DstPort: 2, Proto: packet.ProtoUDP}
	b.Register(key, sink{})
	app.NewCBR(eng, a, key, 20e6, 0)
	return eng, ab, cq, key
}

// TestWatchCebinae: with a Cebinae port on the watched link, skips must
// still engage between the pinned rotation deadlines, and the port's
// counters — fed in closed form by FluidAdvance during skips — must end
// within 1% of the exact packet-level run's.
func TestWatchCebinae(t *testing.T) {
	engExact, _, cqExact, _ := buildCebinaeLink()
	engExact.Run(horizon)
	exactTx := cqExact.Stats.TxBytes
	if exactTx == 0 {
		t.Fatal("baseline moved no bytes")
	}

	eng, dev, cq, key := buildCebinaeLink()
	c := New(eng, Config{})
	c.WatchDevice(dev)
	// The flow total is the device's wire-byte counter, so the Cebinae
	// feed needs no goodput→wire scaling: wireFactor 1.
	c.WatchFlow(key, 0, func() int64 { return int64(dev.Stats().TxBytes) }, nil)
	c.WatchCebinae(cq, 1)
	c.Start()
	eng.Run(horizon)

	st := c.Stats()
	if st.Arms == 0 || st.Skips == 0 {
		t.Fatalf("controller never armed/skipped with a Cebinae port watched: %+v", st)
	}
	if st.SkippedTime < horizon/4 {
		t.Fatalf("too little skipped: %v of %v", st.SkippedTime, horizon)
	}
	ffTx := cq.Stats.TxBytes
	diff := float64(ffTx) - float64(exactTx)
	if diff < 0 {
		diff = -diff
	}
	if diff/float64(exactTx) > 0.01 {
		t.Fatalf("Cebinae port TxBytes error > 1%%: fluid=%d exact=%d", ffTx, exactTx)
	}
	if cq.Stats.Enqueued == 0 || cq.Stats.TxPackets == 0 {
		t.Fatalf("fluid feed left packet counters empty: %+v", cq.Stats)
	}
}
