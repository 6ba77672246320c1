package netem

import (
	"fmt"
	"math"

	"cebinae/internal/packet"
	"cebinae/internal/sim"
)

// Topo declares a topology on a Fabric in Mininet's idiom: Host, Switch
// and Link create nodes and links on the fabric in call order, so node IDs
// and device creation order are a function of the declaration alone, and
// Route then installs every next hop the links imply. Placement is the
// fabric's business: every node is asked for on partition 0, and a sharded
// fabric's plan (internal/shard's AutoPlan) decides where it really lives.
type Topo struct {
	f     Fabric
	nodes []topoNode
	index map[*Node]int
}

// topoNode is one declared node. A host's one link is its default route;
// a switch keeps its links, in declaration order, for Route.
type topoNode struct {
	*Node
	host  bool
	links []topoLink
}

// topoLink is a switch's end of a link: the far node's position, the
// switch's device toward it and the far node's device back.
type topoLink struct {
	far       int
	out, back *Device
}

// NewTopo starts an empty topology on f.
func NewTopo(f Fabric) *Topo { return &Topo{f: f, index: make(map[*Node]int)} }

// Host declares an end host: it carries transport endpoints and sends
// everything out of its one link.
func (t *Topo) Host(name string) *Node { return t.add(name, true) }

// Switch declares a forwarding node.
func (t *Topo) Switch(name string) *Node { return t.add(name, false) }

func (t *Topo) add(name string, host bool) *Node {
	n := t.f.NodeOn(0, name)
	t.index[n] = len(t.nodes)
	t.nodes = append(t.nodes, topoNode{Node: n, host: host})
	return n
}

// Link connects two declared nodes on the fabric and returns the a→b and
// b→a devices; their qdiscs are the caller's, as with Connect. A host's
// link becomes its default route, so a host may have only one.
func (t *Topo) Link(a, b *Node, cfg LinkConfig) (*Device, *Device) {
	ia, ib := t.pos(a), t.pos(b)
	ab, ba := t.f.Connect(a, b, cfg)
	t.attach(ia, ib, ab, ba)
	t.attach(ib, ia, ba, ab)
	return ab, ba
}

// pos returns n's declaration position, refusing a node this topology did
// not declare and a host's second link.
func (t *Topo) pos(n *Node) int {
	i, ok := t.index[n]
	switch {
	case !ok:
		panic(fmt.Sprintf("netem: node %s is not declared on this topology", n.Name))
	case t.nodes[i].host && n.uplink != nil:
		panic(fmt.Sprintf("netem: host %s already has its link", n.Name))
	}
	return i
}

// attach records the node at position i's end of a link toward far.
func (t *Topo) attach(i, far int, out, back *Device) {
	if n := &t.nodes[i]; n.host {
		n.uplink = out
	} else {
		n.links = append(n.links, topoLink{far, out, back})
	}
}

// Route installs, on every switch, the next hop toward every host: from
// each switch, a breadth-first search over the switches that expands each
// one's links in declaration order — so of two equal-length paths the one
// through the earlier-declared link wins — gives every switch it reaches
// its next hop toward the hosts linked to the first. A switch's table
// spans the hosts' IDs and replaces any it had; hosts get none.
func (t *Topo) Route() {
	lo, hi := packet.NodeID(math.MaxInt32), packet.NodeID(0)
	for _, n := range t.nodes {
		if n.host {
			lo, hi = min(lo, n.ID), max(hi, n.ID)
		}
	}
	if lo > hi {
		return
	}
	for _, n := range t.nodes {
		if !n.host {
			n.routes, n.routeBase = make([]*Device, hi-lo+1), lo
		}
	}
	parent := make([]*Device, len(t.nodes))
	seen := make([]bool, len(t.nodes))
	var order []int
	for root, sw := range t.nodes {
		if sw.host {
			continue
		}
		clear(seen)
		seen[root] = true
		order = append(order[:0], root)
		for i := 0; i < len(order); i++ {
			for _, l := range t.nodes[order[i]].links {
				if !seen[l.far] && !t.nodes[l.far].host {
					seen[l.far], parent[l.far] = true, l.back
					order = append(order, l.far)
				}
			}
		}
		for _, l := range sw.links {
			if h := t.nodes[l.far]; h.host {
				sw.routes[h.ID-lo] = l.out
				for _, v := range order[1:] {
					t.nodes[v].routes[h.ID-lo] = parent[v]
				}
			}
		}
	}
}

// Dumbbell is the canonical single-bottleneck topology used by most of the
// paper's experiments: N senders on the left, N receivers on the right, two
// switches in the middle, and one shared bottleneck link between them.
//
//	s0 ─┐                     ┌─ r0
//	s1 ─┤                     ├─ r1
//	 …  ├─ SW1 ══bottleneck══ SW2 ┤ …
//	sN ─┘                     └─ rN
type Dumbbell struct {
	// Net is the network holding the topology.
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
	// matches, and refuses one below twice BottleneckDelay. If a single
	// element is given it applies to every flow.
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

// BuildDumbbell constructs the topology on a fabric and installs routes.
// It panics, naming the flow, on a base RTT below twice the bottleneck
// delay: no access link could make one up.
func BuildDumbbell(f Fabric, cfg DumbbellConfig) *Dumbbell {
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
	t := NewTopo(f)
	d := &Dumbbell{SW1: t.Switch("sw1"), SW2: t.Switch("sw2")}
	d.Net = d.SW1.Network()
	d.Bottleneck, d.BottleneckRev = t.Link(d.SW1, d.SW2, LinkConfig{RateBps: cfg.BottleneckBps, Delay: cfg.BottleneckDelay})
	d.Bottleneck.SetQdisc(cfg.BottleneckQdisc(d.Bottleneck))
	d.BottleneckRev.SetQdisc(cfg.DefaultQdisc())

	for i := 0; i < cfg.FlowCount; i++ {
		// Base RTT = 2*(senderAccess + bottleneck + receiverAccess). The
		// receiver access link has no delay; the sender access link makes
		// up the remainder.
		rtt := cfg.RTTs[0]
		if len(cfg.RTTs) > 1 {
			rtt = cfg.RTTs[i]
		}
		sendDelay := rtt/2 - cfg.BottleneckDelay
		if sendDelay < 0 {
			panic(fmt.Sprintf("netem: dumbbell flow %d: base RTT %d ns is below twice the %d ns bottleneck delay", i, int64(rtt), int64(cfg.BottleneckDelay)))
		}
		s, r := t.Host(fmt.Sprintf("s%d", i)), t.Host(fmt.Sprintf("r%d", i))
		t.Link(s, d.SW1, LinkConfig{RateBps: access, Delay: sendDelay, QdiscFactory: cfg.DefaultQdisc})
		t.Link(d.SW2, r, LinkConfig{RateBps: access, QdiscFactory: cfg.DefaultQdisc})
		d.Senders = append(d.Senders, s)
		d.Receivers = append(d.Receivers, r)
	}
	t.Route()
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

// ParkingLotConfig parameterises BuildParkingLotOn.
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

// BuildParkingLotOn constructs the chain on a fabric and installs routes.
func BuildParkingLotOn(f Fabric, cfg ParkingLotConfig) *ParkingLot {
	if cfg.Hops < 1 || len(cfg.CrossPerHop) != cfg.Hops {
		panic("netem: parking lot misconfigured")
	}
	access := cfg.AccessBps
	if access == 0 {
		access = 10 * cfg.BottleneckBps
	}
	t := NewTopo(f)
	pl := &ParkingLot{}
	for i := 0; i <= cfg.Hops; i++ {
		pl.Switches = append(pl.Switches, t.Switch(fmt.Sprintf("sw%d", i)))
	}
	pl.Net = pl.Switches[0].Network()
	for h := 0; h < cfg.Hops; h++ {
		fd, rd := t.Link(pl.Switches[h], pl.Switches[h+1], LinkConfig{RateBps: cfg.BottleneckBps, Delay: cfg.LinkDelay})
		fd.SetQdisc(cfg.BottleneckQdisc(fd))
		rd.SetQdisc(cfg.DefaultQdisc())
		pl.Bottlenecks = append(pl.Bottlenecks, fd)
	}

	// host declares a host attached to switch sw by an access link.
	host := func(name string, sw int) *Node {
		h := t.Host(name)
		t.Link(h, pl.Switches[sw], LinkConfig{RateBps: access, Delay: cfg.AccessDelay, QdiscFactory: cfg.DefaultQdisc})
		return h
	}
	for i := 0; i < cfg.LongFlows; i++ {
		pl.LongSenders = append(pl.LongSenders, host(fmt.Sprintf("L%ds", i), 0))
		pl.LongReceivers = append(pl.LongReceivers, host(fmt.Sprintf("L%dr", i), cfg.Hops))
	}
	pl.CrossSenders = make([][]*Node, cfg.Hops)
	pl.CrossReceivers = make([][]*Node, cfg.Hops)
	for h, n := range cfg.CrossPerHop {
		for c := 0; c < n; c++ {
			pl.CrossSenders[h] = append(pl.CrossSenders[h], host(fmt.Sprintf("X%d_%ds", h, c), h))
			pl.CrossReceivers[h] = append(pl.CrossReceivers[h], host(fmt.Sprintf("X%d_%dr", h, c), h+1))
		}
	}
	t.Route()
	return pl
}
