package experiments

import (
	"fmt"
	"strings"

	"cebinae/internal/netem"
	"cebinae/internal/packet"
	"cebinae/internal/qdisc"
	"cebinae/internal/sim"
)

// CrossConfig parameterises the cross-shard delivery scenario: a single
// a→b hop carrying hand-injected packets at exact instants. It is the
// smallest scenario that exercises a cut link end to end, so it doubles
// as the shard runner's minimal differential workload (the sharded
// delivery instants must match a single merged engine exactly) and as
// the "cross" scenario-file kind.
type CrossConfig struct {
	Name string
	// RateBps / Delay / BufferBytes describe the one link (both
	// directions are FIFO; the delay bounds the conservative lookahead
	// when the link is cut, so it must be positive).
	RateBps     float64
	Delay       SimTime
	BufferBytes int
	// Sends lists the exact injection instants at node a.
	Sends []SimTime
	// PacketBytes / PayloadBytes size each injected packet.
	PacketBytes  int
	PayloadBytes int
	// Until is the run horizon.
	Until  SimTime
	Shards int
}

// CanonicalCross is the cut-link scenario the shard tests pin: five
// packets straddling several conservative windows over a 1 Gbps, 1 ms
// hop.
func CanonicalCross(shards int) CrossConfig {
	return CrossConfig{
		Name:         "cross",
		RateBps:      1e9,
		Delay:        sim.Duration(1e6),
		BufferBytes:  1 << 20,
		Sends:        []SimTime{0, 5e5, 17e5, 32e5, 32e5 + 1},
		PacketBytes:  1500,
		PayloadBytes: 1448,
		Until:        sim.Duration(1e7),
		Shards:       shards,
	}
}

// CrossResult carries the delivery instants observed at b plus the event
// count — the whole observable surface of the scenario.
type CrossResult struct {
	Name       string
	Deliveries []SimTime
	Events     uint64
}

// Report renders the cross run in canonical byte-stable form.
func (r CrossResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cross %s: %d deliveries, events=%d\n", r.Name, len(r.Deliveries), r.Events)
	for i, t := range r.Deliveries {
		fmt.Fprintf(&b, "%4d %d\n", i, int64(t))
	}
	return b.String()
}

// crossSink records delivery times as observed by the destination
// engine's clock.
type crossSink struct {
	eng   *sim.Engine
	times []SimTime
}

func (s *crossSink) Deliver(p *packet.Packet) { s.times = append(s.times, s.eng.Now()) }

// RunCross executes the scenario; results are byte-identical at any
// shard count.
func RunCross(cfg CrossConfig) CrossResult {
	type topo struct {
		a    *netem.Node
		bID  packet.NodeID
		sink *crossSink
	}
	build := func(f netem.Fabric) topo {
		a := f.NodeOn(0, "a")
		b := f.NodeOn(f.Shards()-1, "b")
		da, db := f.Connect(a, b, netem.LinkConfig{RateBps: cfg.RateBps, Delay: cfg.Delay})
		da.SetQdisc(qdisc.NewFIFO(cfg.BufferBytes))
		db.SetQdisc(qdisc.NewFIFO(cfg.BufferBytes))
		a.AddRoute(b.ID, da)
		sink := &crossSink{eng: b.Engine()}
		b.Register(packet.FlowKey{Src: a.ID, Dst: b.ID, SrcPort: 1, DstPort: 2, Proto: packet.ProtoTCP}, sink)
		return topo{a, b.ID, sink}
	}
	cl := newCluster(cfg.Shards, func(f netem.Fabric) { build(f) })
	t := build(cl)
	a, bID := t.a, t.bID
	send := sim.Func(func() {
		p := a.AllocPacket()
		p.Flow = packet.FlowKey{Src: a.ID, Dst: bID, SrcPort: 1, DstPort: 2, Proto: packet.ProtoTCP}
		p.Size = int32(cfg.PacketBytes)
		p.PayloadSize = int32(cfg.PayloadBytes)
		a.Inject(p)
	})
	for _, at := range cfg.Sends {
		a.Engine().ScheduleCall(at, send, nil)
	}
	cl.Run(cfg.Until)
	return CrossResult{Name: cfg.Name, Deliveries: t.sink.times, Events: cl.Processed()}
}
