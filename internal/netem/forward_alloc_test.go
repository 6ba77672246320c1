package netem_test

import (
	"testing"

	"cebinae/internal/netem"
	"cebinae/internal/packet"
	"cebinae/internal/qdisc"
	"cebinae/internal/sim"
)

type nullEndpoint struct{}

func (nullEndpoint) Deliver(p *packet.Packet) {}

// newHop builds a two-node 1 Gbps store-and-forward hop and returns the
// network with a forward func that carries one packet across it: pool
// alloc, qdisc enqueue/dequeue, wire-stream propagation entry pushed as
// serialisation starts, delivery, pool release.
func newHop() (*netem.Network, func()) {
	eng := sim.NewEngine()
	w := netem.NewNetwork(eng)
	a, c := w.NewNode("a"), w.NewNode("b")
	da, db := w.Connect(a, c, netem.LinkConfig{RateBps: 1e9, Delay: 1000})
	da.SetQdisc(qdisc.NewFIFO(1 << 20))
	db.SetQdisc(qdisc.NewFIFO(1 << 20))
	key := packet.FlowKey{Src: a.ID, Dst: c.ID, SrcPort: 1, DstPort: 2, Proto: packet.ProtoTCP}
	c.Register(key, nullEndpoint{})
	a.AddRoute(c.ID, da)
	return w, func() {
		p := a.AllocPacket()
		p.Flow = key
		p.Size = 1500
		p.PayloadSize = 1448
		a.Inject(p)
		eng.RunAll()
	}
}

// inFlightRig is one saturated FIFO hop whose propagation delay is
// `standing` serialisation times: a fixed population of packets circulates
// (each delivery injects the next), so the wire always carries about
// `standing` of them.
type inFlightRig struct {
	eng  *sim.Engine
	src  *netem.Node
	key  packet.FlowKey
	left int
}

func newInFlightRig(standing int) *inFlightRig {
	eng := sim.NewEngine()
	w := netem.NewNetwork(eng)
	a, c := w.NewNode("a"), w.NewNode("b")
	// 1500 B at 10 Gbps serialises in 1200 ns.
	da, db := w.Connect(a, c, netem.LinkConfig{RateBps: 10e9, Delay: sim.Time(1200 * standing)})
	da.SetQdisc(qdisc.NewFIFO(2 * standing * 1500))
	db.SetQdisc(qdisc.NewFIFO(1 << 20))
	r := &inFlightRig{eng: eng, src: a}
	r.key = packet.FlowKey{Src: a.ID, Dst: c.ID, SrcPort: 1, DstPort: 2, Proto: packet.ProtoTCP}
	c.Register(r.key, r)
	a.AddRoute(c.ID, da)
	for i := 0; i < standing; i++ {
		r.send()
	}
	return r
}

func (r *inFlightRig) send() {
	p := r.src.AllocPacket()
	p.Flow = r.key
	p.Size = 1500
	p.PayloadSize = 1448
	r.src.Inject(p)
}

// Deliver replaces every delivered packet with a fresh one at the source.
func (r *inFlightRig) Deliver(*packet.Packet) {
	if r.left--; r.left == 0 {
		r.eng.Stop()
	}
	r.send()
}

// forward runs the hop until n more packets have been delivered.
func (r *inFlightRig) forward(n int) {
	r.left = n
	r.eng.RunAll()
}

// BenchmarkNetemForward measures one packet per op through the two-node
// hop, one packet in the network at a time.
func BenchmarkNetemForward(b *testing.B) {
	_, forward := newHop()
	forward() // warm the packet pool and event free list
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		forward()
	}
}

// BenchmarkNetemForwardInFlight measures one packet per op across one FIFO
// hop with 16 384 packets standing in propagation: the bandwidth-delay
// product of a 10 Gbps path with a ≈ 20 ms one-way delay, which
// BenchmarkNetemForward cannot see.
func BenchmarkNetemForwardInFlight(b *testing.B) {
	const standing = 16384
	r := newInFlightRig(standing)
	r.forward(2 * standing) // fill the wire, warm the pool and entry blocks
	b.ReportAllocs()
	b.ResetTimer()
	r.forward(b.N)
}

// TestNetemForwardZeroAlloc: the packet pool, qdisc, persistent transmit
// event, and wire-stream entry together move a packet across a hop without
// allocating.
func TestNetemForwardZeroAlloc(t *testing.T) {
	w, forward := newHop()
	forward() // warm pool + free lists
	allocs := testing.AllocsPerRun(100, forward)
	if allocs != 0 {
		t.Fatalf("forwarding hot path allocates %.1f objects/run, want 0", allocs)
	}
	if reuses := w.Pool().Reuses; reuses == 0 {
		t.Fatal("packet pool never recycled a packet")
	}
}

// TestNetemForwardEvents pins the event budget of a hop: a packet that
// finds the link idle costs exactly one event, its arrival, and a packet
// queued behind another adds exactly one, the completion that starts it.
func TestNetemForwardEvents(t *testing.T) {
	w, forward := newHop()
	eng := w.Engine
	forward()
	before := eng.Processed
	for i := 0; i < 100; i++ {
		forward()
	}
	if got := eng.Processed - before; got != 100 {
		t.Fatalf("100 uncontended packets cost %d events, want 100", got)
	}

	a := w.Nodes()[0]
	dev := a.Devices()[0]
	before = eng.Processed
	for i := 0; i < 3; i++ {
		p := a.AllocPacket()
		p.Flow = packet.FlowKey{Src: a.ID, Dst: w.Nodes()[1].ID, SrcPort: 1, DstPort: 2, Proto: packet.ProtoTCP}
		p.Size = 1500
		dev.Send(p)
	}
	eng.RunAll()
	if got := eng.Processed - before; got != 5 {
		t.Fatalf("3 back-to-back packets cost %d events, want 3 arrivals + 2 completions", got)
	}
}

// TestNetemForwardInFlightZeroAlloc pins the same path with the wire full:
// thousands of packets in propagation ride entry blocks recycled through
// the engine's free list, so a standing bandwidth-delay product costs no
// allocation per packet either.
func TestNetemForwardInFlightZeroAlloc(t *testing.T) {
	const standing = 5000
	r := newInFlightRig(standing)
	r.forward(2 * standing)
	if got := r.eng.Pending(); got < 4096 {
		t.Fatalf("%d events pending, want at least 4096 packets in flight", got)
	}
	allocs := testing.AllocsPerRun(20, func() { r.forward(1000) })
	if allocs != 0 {
		t.Fatalf("forwarding with %d packets in flight allocates %.1f objects per 1000 packets, want 0", standing, allocs)
	}
}
