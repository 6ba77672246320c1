package app

import (
	"testing"

	"cebinae/internal/netem"
	"cebinae/internal/packet"
	"cebinae/internal/qdisc"
	"cebinae/internal/sim"
)

type countSink struct{ n *uint64 }

func (s countSink) Deliver(p *packet.Packet) { *s.n++ }

// pipe builds a simple a→b link and returns the pieces.
func pipe(eng *sim.Engine, rate float64) (*netem.Node, *netem.Node) {
	w := netem.NewNetwork(eng)
	a, b := w.NewNode("a"), w.NewNode("b")
	ab, ba := w.Connect(a, b, netem.LinkConfig{RateBps: rate, Delay: sim.Duration(1e6)})
	ab.SetQdisc(qdisc.NewFIFO(4 << 20))
	ba.SetQdisc(qdisc.NewFIFO(4 << 20))
	a.AddRoute(b.ID, ab)
	b.AddRoute(a.ID, ba)
	return a, b
}

func TestCBRRateAccuracy(t *testing.T) {
	eng := sim.NewEngine()
	a, b := pipe(eng, 100e6)
	key := packet.FlowKey{Src: a.ID, Dst: b.ID, SrcPort: 1, DstPort: 2, Proto: packet.ProtoUDP}
	var got uint64
	b.Register(key, countSink{&got})
	c := NewCBR(eng, a, key, 12e6, 0)
	eng.Run(sim.Duration(2e9))
	// 12 Mbps of 1500 B packets for 2 s ⇒ 2000 packets.
	if c.Sent < 1990 || c.Sent > 2010 {
		t.Fatalf("CBR sent %d packets, want ≈2000", c.Sent)
	}
	if got < c.Sent-5 {
		t.Fatalf("deliveries %d below sends %d", got, c.Sent)
	}
}

func TestCBRStartsAtStartTime(t *testing.T) {
	eng := sim.NewEngine()
	a, b := pipe(eng, 100e6)
	key := packet.FlowKey{Src: a.ID, Dst: b.ID, SrcPort: 1, DstPort: 2, Proto: packet.ProtoUDP}
	var got uint64
	b.Register(key, countSink{&got})
	c := NewCBR(eng, a, key, 12e6, sim.Duration(1e9))
	eng.Run(sim.Duration(1.5e9))
	// Started at 1 s, run to 1.5 s ⇒ ≈500 packets.
	if c.Sent < 490 || c.Sent > 510 {
		t.Fatalf("CBR started at 1 s sent %d by 1.5 s, want ≈500", c.Sent)
	}
}

func TestChurnCompletesTransfers(t *testing.T) {
	eng := sim.NewEngine()
	a, b := pipe(eng, 100e6)
	ch := NewChurn(eng, a, b, ChurnConfig{
		ArrivalsPerSec: 50,
		MeanFlowBytes:  50 << 10,
		BasePort:       100,
		Seed:           1,
	})
	eng.Run(sim.Duration(5e9))
	if ch.Started < 150 {
		t.Fatalf("expected ≈250 arrivals in 5 s, got %d", ch.Started)
	}
	if float64(ch.Completed) < 0.8*float64(ch.Started) {
		t.Fatalf("only %d of %d transfers completed", ch.Completed, ch.Started)
	}
	if len(ch.CompletionTimes) != int(ch.Completed) {
		t.Fatal("completion-time bookkeeping inconsistent")
	}
	for _, ct := range ch.CompletionTimes {
		if ct <= 0 {
			t.Fatal("non-positive completion time")
		}
	}
}

func TestChurnUnknownCCPanics(t *testing.T) {
	eng := sim.NewEngine()
	a, b := pipe(eng, 100e6)
	ch := NewChurn(eng, a, b, ChurnConfig{ArrivalsPerSec: 1000, CC: "bogus", Seed: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("unknown CC should panic at first flow start")
		}
	}()
	_ = ch
	eng.Run(sim.Duration(1e9))
}
