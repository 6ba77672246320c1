package netem

import (
	"fmt"

	"cebinae/internal/sim"
)

// Dumbbell is the canonical single-bottleneck topology used by most of the
// paper's experiments: N senders on the left, N receivers on the right, two
// switches in the middle, and one shared bottleneck link between them.
//
//	s0 ─┐                     ┌─ r0
//	s1 ─┤                     ├─ r1
//	 …  ├─ SW1 ══bottleneck══ SW2 ┤ …
//	sN ─┘                     └─ rN
type Dumbbell struct {
	// Net is the network the topology is built on.
	Net       *Network
	Senders   []*Node
	Receivers []*Node
	SW1, SW2  *Node
	// Bottleneck is the SW1→SW2 device (the direction data flows); its
	// qdisc is the system under test.
	Bottleneck *Device
	// BottleneckRev carries ACKs SW2→SW1.
	BottleneckRev *Device
}

// DumbbellConfig parameterises BuildDumbbell.
type DumbbellConfig struct {
	FlowCount int
	// BottleneckBps is the shared link's rate in bits per second.
	BottleneckBps float64
	// BottleneckDelay is the one-way propagation delay of the shared link.
	BottleneckDelay sim.Time
	// RTTs lists the target base round-trip time per flow; the builder
	// derives each sender's access-link delay so the end-to-end base RTT
	// matches. If a single element is given it applies to every flow.
	RTTs []sim.Time
	// AccessBps is the edge link rate (default: 10× bottleneck, so edges
	// never bottleneck).
	AccessBps float64
	// BottleneckQdisc builds the qdisc for the SW1→SW2 device.
	BottleneckQdisc func(dev *Device) Qdisc
	// DefaultQdisc builds qdiscs for every other device; when nil a large
	// drop-tail FIFO should be installed by the caller.
	DefaultQdisc func() Qdisc
}

// RTTForFlow returns the configured base RTT for flow i.
func (c *DumbbellConfig) RTTForFlow(i int) sim.Time {
	if len(c.RTTs) == 1 {
		return c.RTTs[0]
	}
	return c.RTTs[i]
}

// BuildDumbbell constructs the topology on a network and installs routes.
func BuildDumbbell(w *Network, cfg DumbbellConfig) *Dumbbell {
	if cfg.FlowCount <= 0 {
		panic("netem: dumbbell needs at least one flow")
	}
	if len(cfg.RTTs) != 1 && len(cfg.RTTs) != cfg.FlowCount {
		panic(fmt.Sprintf("netem: %d RTTs for %d flows", len(cfg.RTTs), cfg.FlowCount))
	}
	access := cfg.AccessBps
	if access == 0 {
		access = 10 * cfg.BottleneckBps
	}
	d := &Dumbbell{Net: w}
	d.SW1 = w.NewNode("sw1")
	d.SW2 = w.NewNode("sw2")

	btl, btlRev := w.Connect(d.SW1, d.SW2, LinkConfig{RateBps: cfg.BottleneckBps, Delay: cfg.BottleneckDelay})
	d.Bottleneck, d.BottleneckRev = btl, btlRev
	btl.SetQdisc(cfg.BottleneckQdisc(btl))
	btlRev.SetQdisc(cfg.DefaultQdisc())

	for i := 0; i < cfg.FlowCount; i++ {
		rtt := cfg.RTTForFlow(i)
		// Base RTT = 2*(senderAccess + bottleneck + receiverAccess). The
		// receiver access delay is held tiny; the sender access link makes
		// up the remainder.
		recvDelay := sim.Time(0)
		sendDelay := rtt/2 - cfg.BottleneckDelay - recvDelay
		if sendDelay < 0 {
			sendDelay = 0
		}

		s := w.NewNode(fmt.Sprintf("s%d", i))
		r := w.NewNode(fmt.Sprintf("r%d", i))
		sDev, sw1Dev := w.Connect(s, d.SW1, LinkConfig{RateBps: access, Delay: sendDelay})
		sw2Dev, rDev := w.Connect(d.SW2, r, LinkConfig{RateBps: access, Delay: recvDelay})
		for _, dev := range []*Device{sDev, sw1Dev, sw2Dev, rDev} {
			dev.SetQdisc(cfg.DefaultQdisc())
		}

		// Routing: sender → everything right of SW1 via its access link;
		// receiver side symmetric for ACKs.
		s.AddRoute(r.ID, sDev)
		d.SW1.AddRoute(r.ID, btl)
		d.SW2.AddRoute(r.ID, sw2Dev)
		r.AddRoute(s.ID, rDev)
		d.SW2.AddRoute(s.ID, btlRev)
		d.SW1.AddRoute(s.ID, sw1Dev)

		d.Senders = append(d.Senders, s)
		d.Receivers = append(d.Receivers, r)
	}
	return d
}

// ParkingLot is the multi-bottleneck chain of §5.3 / Fig. 11: long flows
// traverse every hop of a switch chain while per-hop cross traffic contends
// at each inter-switch link.
//
//	long senders ─ SW0 ══ℓ1══ SW1 ══ℓ2══ SW2 ══ℓ3══ SW3 ─ long receivers
//	                │cross1↑↓        │cross2↑↓       │cross3↑↓
type ParkingLot struct {
	// Net is the network holding the first switch (the whole topology on
	// a single-Network fabric).
	Net      *Network
	Switches []*Node
	// LongSenders/LongReceivers carry the end-to-end flows.
	LongSenders   []*Node
	LongReceivers []*Node
	// CrossSenders[h]/CrossReceivers[h] attach at hop h (contending on the
	// link Switches[h] → Switches[h+1]).
	CrossSenders   [][]*Node
	CrossReceivers [][]*Node
	// Bottlenecks[h] is the device for the h-th inter-switch link.
	Bottlenecks []*Device
}

// ParkingLotConfig parameterises BuildParkingLot.
type ParkingLotConfig struct {
	Hops          int // number of inter-switch (bottleneck) links
	LongFlows     int
	CrossPerHop   []int // cross flows entering at each hop; len == Hops
	BottleneckBps float64
	LinkDelay     sim.Time // per inter-switch link, one way
	AccessBps     float64
	AccessDelay   sim.Time
	// BottleneckQdisc builds the qdisc for each inter-switch (forward)
	// device; DefaultQdisc covers everything else.
	BottleneckQdisc func(dev *Device) Qdisc
	DefaultQdisc    func() Qdisc
}

// BuildParkingLot constructs the chain topology on a single network with
// routes.
func BuildParkingLot(w *Network, cfg ParkingLotConfig) *ParkingLot {
	return BuildParkingLotOn(w, cfg)
}

// BuildParkingLotOn constructs the chain on an arbitrary fabric.
//
// Partition plan: the switch chain is split into contiguous blocks (switch
// h goes to shard h·n/(hops+1)) and every host is colocated with the
// switch it attaches to, so the only cut links are inter-switch bottleneck
// links (lookahead = LinkDelay). This is the topology where sharding pays
// off: with hops+1 switches a fabric can use up to hops+1 shards, each
// carrying one bottleneck's worth of work.
func BuildParkingLotOn(f Fabric, cfg ParkingLotConfig) *ParkingLot {
	if cfg.Hops < 1 || len(cfg.CrossPerHop) != cfg.Hops {
		panic("netem: parking lot misconfigured")
	}
	access := cfg.AccessBps
	if access == 0 {
		access = 10 * cfg.BottleneckBps
	}
	n := f.Shards()
	shardOf := func(sw int) int { return sw * n / (cfg.Hops + 1) }

	pl := &ParkingLot{}
	for i := 0; i <= cfg.Hops; i++ {
		pl.Switches = append(pl.Switches, f.NodeOn(shardOf(i), fmt.Sprintf("sw%d", i)))
	}
	pl.Net = pl.Switches[0].Network()
	fwd := make([]*Device, cfg.Hops)
	rev := make([]*Device, cfg.Hops)
	for h := 0; h < cfg.Hops; h++ {
		fd, rd := f.Connect(pl.Switches[h], pl.Switches[h+1], LinkConfig{RateBps: cfg.BottleneckBps, Delay: cfg.LinkDelay})
		fd.SetQdisc(cfg.BottleneckQdisc(fd))
		rd.SetQdisc(cfg.DefaultQdisc())
		fwd[h], rev[h] = fd, rd
	}
	pl.Bottlenecks = fwd

	attachHost := func(name string, sw int) (*Node, *Device, *Device) {
		h := f.NodeOn(shardOf(sw), name)
		hd, swd := f.Connect(h, pl.Switches[sw], LinkConfig{RateBps: access, Delay: cfg.AccessDelay})
		hd.SetQdisc(cfg.DefaultQdisc())
		swd.SetQdisc(cfg.DefaultQdisc())
		return h, hd, swd
	}

	addFlowPath := func(s *Node, sDev *Device, sSw int, r *Node, rDev *Device, rSw int, swToS, swToR *Device) {
		// forward: s → … → r
		s.AddRoute(r.ID, sDev)
		for h := sSw; h < rSw; h++ {
			pl.Switches[h].AddRoute(r.ID, fwd[h])
		}
		pl.Switches[rSw].AddRoute(r.ID, swToR)
		// reverse: r → … → s
		r.AddRoute(s.ID, rDev)
		for h := rSw; h > sSw; h-- {
			pl.Switches[h].AddRoute(s.ID, rev[h-1])
		}
		pl.Switches[sSw].AddRoute(s.ID, swToS)
	}

	for i := 0; i < cfg.LongFlows; i++ {
		s, sDev, sw0Dev := attachHost(fmt.Sprintf("L%ds", i), 0)
		r, rDev, swNDev := attachHost(fmt.Sprintf("L%dr", i), cfg.Hops)
		addFlowPath(s, sDev, 0, r, rDev, cfg.Hops, sw0Dev, swNDev)
		pl.LongSenders = append(pl.LongSenders, s)
		pl.LongReceivers = append(pl.LongReceivers, r)
	}

	pl.CrossSenders = make([][]*Node, cfg.Hops)
	pl.CrossReceivers = make([][]*Node, cfg.Hops)
	for h := 0; h < cfg.Hops; h++ {
		for c := 0; c < cfg.CrossPerHop[h]; c++ {
			s, sDev, swADev := attachHost(fmt.Sprintf("X%d_%ds", h, c), h)
			r, rDev, swBDev := attachHost(fmt.Sprintf("X%d_%dr", h, c), h+1)
			addFlowPath(s, sDev, h, r, rDev, h+1, swADev, swBDev)
			pl.CrossSenders[h] = append(pl.CrossSenders[h], s)
			pl.CrossReceivers[h] = append(pl.CrossReceivers[h], r)
		}
	}
	return pl
}
