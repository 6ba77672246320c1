// Package netem provides the simulated network substrate: nodes, full-duplex
// point-to-point links, store-and-forward devices with pluggable queue
// disciplines, static routing, and a topology builder (Topo) under the
// scenarios the Cebinae paper evaluates (dumbbell and parking-lot).
//
// The model mirrors the role NS-3's NetDevice + traffic-control layer plays
// in the paper's simulations: a device serialises packets onto its link at a
// configured rate, and a Qdisc decides admission, ordering, and drops.
package netem

import (
	"fmt"

	"cebinae/internal/packet"
	"cebinae/internal/sim"
)

// Qdisc is the queueing discipline attached to a device. Implementations
// live in internal/qdisc and internal/core (the Cebinae LBF); the interface
// is structural so those packages need not import netem.
//
// Enqueue returns false when the packet was refused (tail drop, AQM drop, or
// Cebinae past-tail drop). Dequeue returns nil when no packet is ready. A
// discipline keeps no drop count of its own: the device counts every refusal
// and every packet released through its sink (see SetQdisc).
type Qdisc interface {
	// Enqueue admits p into the discipline. On success the discipline owns
	// the packet until Dequeue hands it back; on failure the caller keeps
	// ownership and must release it.
	Enqueue(p *packet.Packet) bool
	// Dequeue surrenders the next packet to the caller: it leaves the
	// discipline's custody and the caller owns it.
	Dequeue() *packet.Packet
	Len() int
	BytesQueued() int
}

// Endpoint is a transport-layer consumer registered on a host node.
type Endpoint interface {
	// Deliver presents an arriving packet to the transport. The node
	// retains ownership and releases the packet once Deliver returns, so
	// Deliver must not keep the pointer.
	Deliver(p *packet.Packet)
}

// Handoff receives packets leaving the transmit side of a cut link — a
// link whose peer device lives in a different Network (and typically on a
// different engine). Instead of pushing the packet onto its own wire, the
// device passes each packet to the handoff as its serialisation starts,
// with the instant its last bit will leave the device (sent) and its
// arrival time; the remote runner delivers it by calling InjectArrivalFrom
// on the opposite half, carrying `sent` so the arrival sorts among
// same-instant remote events exactly where a single merged engine would
// have placed it. The handoff takes ownership of the packet: it must copy
// what it needs and release the packet to the source network's pool
// before returning.
type Handoff interface {
	// Handoff transfers p to the remote runner. It takes ownership: it
	// copies what it needs and releases the packet to the source pool
	// before returning.
	Handoff(p *packet.Packet, sent, arrival sim.Time)
}

// DeviceStats aggregates a device's traffic counters. DropPackets and
// DropBytes count every packet its qdisc discarded: those refused at
// enqueue and those released through the device's sink after admission.
type DeviceStats struct {
	TxPackets   uint64
	TxBytes     uint64
	RxPackets   uint64
	RxBytes     uint64
	DropPackets uint64
	DropBytes   uint64
}

// Device is one direction-capable attachment point of a node to a link. A
// full-duplex link is a pair of peered devices, each with its own qdisc and
// transmitter.
//
// A packet-hop costs one event: the moment a packet's serialisation starts,
// its arrival at the far end is pushed onto the wire (or handed off) with
// the time and stamp, (end+delay, end), that a push at the completion
// instant `end` would give it, and the seq a completion scheduled at the
// start would draw. The completion itself — count the packet sent, pull the
// next one — is an event only when a packet is waiting behind it; otherwise
// it stays a phantom key (txEnd, txStart, txSeq) that the next Send or
// Kick, finding it behind the event now dispatching, completes on the spot.
// On a link with propagation delay that keeps every tie where it was; on a
// zero-delay link the arrival falls at `end` itself and, its seq drawn at
// the start, dispatches ahead of zero-delay events scheduled at `end`.
type Device struct {
	// The transmit path's state comes first, so the fields a packet start
	// or a Send touches share as few cache lines as possible.
	eng   *sim.Engine
	qdisc Qdisc

	// tx is set from the start of a packet's serialisation until its
	// completion has run; txArmed says the completion is pending as txEvent.
	// txStart and txEnd are Local() readings of the start and completion
	// instants, so a fast-forward skip moves the completion with every other
	// pending event; with txSeq, the seq the arrival drew at the start, they
	// are the completion's key. txSize is the packet's size, counted as
	// transmitted at txEnd.
	tx, txArmed    bool
	txSize         int32
	txStart, txEnd sim.Time
	txSeq          uint64

	// wire is the stream the packet now starting is pushed onto: every local
	// link that shares this device's propagation delay and current
	// serialisation time shares it (Network.wires). Within one such class an
	// arrival's key (start+ser+delay, start+ser) grows with the start
	// instant, and starts happen in dispatch order, so the class's entries
	// are sorted by construction and the event heap holds one entry per
	// busy class. A cut-link half pushes nothing locally; its wire is its
	// own inbound stream, fed by InjectArrivalFrom in the order the remote
	// half transmitted.
	wire   *sim.Stream
	arrive sim.Handler

	// serialiseSize/serialiseTime memoise the last packet size's
	// serialisation delay (and, through it, the wire). Traffic on a device
	// is dominated by long runs of equal-sized packets (full segments one
	// way, bare ACKs the other), so the memo removes the per-packet float
	// division and wire lookup while staying bit-identical to computing the
	// delay fresh each time (a precomputed ns-per-byte multiplier rounds
	// differently and would perturb runs).
	serialiseSize int32
	serialiseTime sim.Time
	delay         sim.Time // one-way propagation delay
	rate          float64  // link rate in bits per second

	stats DeviceStats

	// txEvent is the completion, armed under the phantom's key as soon as
	// the qdisc holds a packet to pull at txEnd. One caller-owned event,
	// rearmed in place, serves every packet.
	txEvent sim.Event

	// handoff, when non-nil, marks this device as the local half of a cut
	// link: started transmissions are handed to it instead of being pushed
	// onto the wire.
	handoff Handoff

	// peer names the node at the link's far end (see Name).
	peer string
	node *Node

	// OnTransmit, when non-nil, observes every packet at the instant its
	// serialisation starts (used by monitors).
	OnTransmit func(p *packet.Packet)
}

// Name returns "node->peer": the device's node and the node at its link's
// far end. It is built on each call; nothing on the packet path reads it.
func (d *Device) Name() string { return d.node.Name + "->" + d.peer }

// Rate returns the link rate in bits per second.
func (d *Device) Rate() float64 { return d.rate }

// Delay returns the one-way propagation delay.
func (d *Device) Delay() sim.Time { return d.delay }

// Qdisc returns the attached queue discipline.
func (d *Device) Qdisc() Qdisc { return d.qdisc }

// Busy reports whether a packet is being serialised onto the link: its
// completion has not dispatched yet. While true, NextHandoffBound is the
// exact completion instant.
func (d *Device) Busy() bool { return d.tx && !d.completed() }

// Stats returns the device's counters. A packet counts as transmitted from
// its completion instant on, whether or not an event marked it.
func (d *Device) Stats() DeviceStats {
	st := d.stats
	if d.tx && d.completed() {
		st.TxPackets++
		st.TxBytes += uint64(d.txSize)
	}
	return st
}

// Credit adds traffic carried in closed form, which no packet event
// accounts for (a fluid fast-forward skip), to the transmit and receive
// counters. A skip discards nothing, so the drop counters take no credit.
func (d *Device) Credit(c DeviceStats) {
	d.stats.TxPackets += c.TxPackets
	d.stats.TxBytes += c.TxBytes
	d.stats.RxPackets += c.RxPackets
	d.stats.RxBytes += c.RxBytes
}

// SetQdisc replaces the queue discipline. Must be called before traffic
// flows through the device. A qdisc that discards packets it has already
// admitted asks, with a SetSink method, for the device's release sink,
// which counts each discard as a drop and returns it to the network's pool.
func (d *Device) SetQdisc(q Qdisc) {
	d.qdisc = q
	if s, ok := q.(interface{ SetSink(packet.Sink) }); ok {
		s.SetSink((*deviceSink)(d))
	}
}

// deviceSink is the Device's release-sink view.
type deviceSink Device

// Release counts a packet its qdisc discarded after admission as dropped
// and returns it to the network's pool.
func (s *deviceSink) Release(p *packet.Packet) { (*Device)(s).drop(p) }

// drop counts p as discarded by the device's qdisc and returns it to the
// network's pool: the one place a device's drops are counted.
func (d *Device) drop(p *packet.Packet) {
	d.stats.DropPackets++
	d.stats.DropBytes += uint64(p.Size)
	d.node.net.pool.Put(p)
}

// Node returns the owning node.
func (d *Device) Node() *Node { return d.node }

// Send admits a packet to the device's qdisc and kicks the transmitter.
// A refused packet is dropped.
func (d *Device) Send(p *packet.Packet) {
	idle := d.idle()
	if !d.qdisc.Enqueue(p) {
		d.drop(p)
		return
	}
	if idle {
		d.transmitNext()
	} else {
		d.arm()
	}
}

// txKey returns the completion and start instants of the packet on the
// link on the Now() clock, where its key lives.
func (d *Device) txKey() (end, start sim.Time) {
	off := d.eng.Now() - d.eng.Local()
	return d.txEnd + off, d.txStart + off
}

// completed reports whether the completion of the packet now on the link
// sorts before the event now dispatching.
func (d *Device) completed() bool {
	end, start := d.txKey()
	return d.eng.Dispatched(end, start, d.txSeq)
}

// idle reports whether the transmitter is free. A completion that has
// fallen due with no event armed for it runs here first, so the qdisc sees
// its Dequeue — empty, as nothing was queued behind the packet — before
// whatever the caller does next: FQ-CoDel detaches emptied flows there.
func (d *Device) idle() bool {
	if !d.tx {
		return true
	}
	if d.txArmed || !d.completed() {
		return false
	}
	d.complete()
	return !d.tx
}

// arm schedules the completion of the packet now on the link, once a packet
// waits in the qdisc for it.
func (d *Device) arm() {
	if d.txArmed {
		return
	}
	d.txArmed = true
	end, start := d.txKey()
	d.eng.ScheduleOwned(&d.txEvent, end, start, d.txSeq, (*deviceTxDone)(d), nil)
}

// complete is a transmit completion: count the packet sent and start on the
// next one.
func (d *Device) complete() {
	d.tx = false
	d.stats.TxPackets++
	d.stats.TxBytes += uint64(d.txSize)
	d.transmitNext()
}

// transmitNext pulls the next packet from the qdisc and starts serialising
// it: its arrival goes onto the wire (or to the handoff) at once, and its
// completion is armed only if the qdisc still holds packets. A dry qdisc
// leaves the device idle.
func (d *Device) transmitNext() {
	p := d.qdisc.Dequeue()
	if p == nil {
		return
	}
	if p.Size != d.serialiseSize {
		d.serialiseSize = p.Size
		d.serialiseTime = sim.Time(float64(p.Size*8) / d.rate * 1e9)
		if d.handoff == nil {
			d.wire = d.node.net.wireFor(d.delay, d.serialiseTime)
		}
	}
	eng := d.eng
	end := eng.Now() + d.serialiseTime
	local := eng.Local()
	d.tx = true
	d.txStart, d.txEnd, d.txSize = local, local+d.serialiseTime, p.Size
	if d.OnTransmit != nil {
		d.OnTransmit(p)
	}
	if d.handoff != nil {
		d.txSeq = eng.DrawSeq()
		d.handoff.Handoff(p, end, end+d.delay)
	} else {
		d.txSeq = eng.StreamCall(d.wire, end+d.delay, end, d.arrive, p)
	}
	if d.qdisc.Len() > 0 {
		d.arm()
	}
}

// deviceTxDone is the Device's transmit-completion event handler view.
type deviceTxDone Device

// OnEvent fires when the last bit of the packet on the link leaves the
// device with another waiting in the qdisc.
func (t *deviceTxDone) OnEvent(any) {
	d := (*Device)(t)
	d.txArmed = false
	d.complete()
}

// deviceArrival is the Device's propagation-arrival event handler view.
type deviceArrival Device

func (r *deviceArrival) OnEvent(arg any) {
	(*Device)(r).receive(arg.(*packet.Packet))
}

// InjectArrivalFrom queues p's arrival on this half of a cut link at
// absolute virtual time t, ordered among same-instant local events by the
// instant the remote half's transmission completed (sent) — the stamp a
// single merged engine gives the wire entry it pushes, so cuts through
// dense-traffic links (same-nanosecond arrival collisions) stay
// byte-identical to the single-engine run. A sharded run thus dispatches
// exactly one arrival event per hop, like the single-engine run. Calls must
// come in (t, sent) order, which is the order the remote half transmitted
// in. p must be owned by this device's network (drawn from its pool or
// handed over for good).
func (d *Device) InjectArrivalFrom(t, sent sim.Time, p *packet.Packet) {
	d.eng.StreamCall(d.wire, t, sent, d.arrive, p)
}

// NextHandoffBound returns a lower bound on the virtual time at which
// this device could next hand off a transmission. While a packet is being
// serialised that is its completion instant: the next packet cannot start
// before it, and the one on the link was handed off when it started. A
// quiescent transmitter can only start again in response to a future
// event on its engine (a Send or Kick happens inside some dispatch), so
// the engine's next-event bound applies. Conservative-parallel runners
// evaluate this at a window barrier — when every event up to the horizon
// has fired — to prove a cut link idle and widen the next lookahead window
// beyond the link's propagation delay.
func (d *Device) NextHandoffBound() sim.Time {
	if d.Busy() {
		end, _ := d.txKey()
		return end
	}
	return d.eng.NextEventTime()
}

// Kick restarts the transmitter if it is idle and the qdisc has become
// non-empty without an Enqueue through Send (used by qdiscs that release
// previously gated packets, such as the Cebinae LBF on queue rotation).
func (d *Device) Kick() {
	if d.idle() && d.qdisc.Len() > 0 {
		d.transmitNext()
	}
}

func (d *Device) receive(p *packet.Packet) {
	d.stats.RxPackets++
	d.stats.RxBytes += uint64(p.Size)
	d.node.receive(p)
}

// Node is a host or switch. Hosts carry transport endpoints; switches only
// forward. Forwarding uses a static next-hop table keyed by destination.
type Node struct {
	ID   packet.NodeID
	Name string

	net     *Network
	devices []*Device
	// routes is the next-hop table: routes[dst-routeBase], nil meaning no
	// route. Node IDs are dense and cluster-global, so a switch's table is
	// a full array over the hosts' IDs.
	routes    []*Device
	routeBase packet.NodeID
	// uplink is a host's one link (Topo.Link): the next hop for every
	// destination its table does not name, so hosts need no table.
	uplink *Device

	// ep is the endpoint registered first, under epKey; demux holds every
	// later one and is made only when a second key registers. A dumbbell
	// host carries exactly one endpoint, so its packets are matched by one
	// key comparison, with no map and no hash.
	epKey packet.FlowKey
	ep    Endpoint
	demux map[packet.FlowKey]Endpoint

	// defaultEp, when non-nil, receives packets addressed to this node
	// whose flow key has no demux entry — the catch-all a replay sink
	// registers so a million concurrent flows do not need a million demux
	// entries. Exact-key endpoints always win over the catch-all.
	defaultEp Endpoint

	// Unroutable counts packets discarded because the node had no route to
	// their destination or no endpoint registered for their flow key.
	Unroutable uint64
}

// Devices returns the node's attachment points in creation order.
func (n *Node) Devices() []*Device { return n.devices }

// Network returns the owning network.
func (n *Node) Network() *Network { return n.net }

// Engine returns the engine the node's network runs on. In a sharded run
// every consumer of a node (transport endpoints, qdiscs, samplers) must
// schedule on this engine, not on some global one.
func (n *Node) Engine() *sim.Engine { return n.net.Engine }

// AddRoute installs dev as the next hop towards dst.
func (n *Node) AddRoute(dst packet.NodeID, dev *Device) {
	switch {
	case len(n.routes) == 0:
		n.routeBase = dst
	case dst < n.routeBase:
		grown := make([]*Device, int(n.routeBase-dst)+len(n.routes))
		copy(grown[n.routeBase-dst:], n.routes)
		n.routes, n.routeBase = grown, dst
	}
	for int(dst-n.routeBase) >= len(n.routes) {
		n.routes = append(n.routes, nil)
	}
	n.routes[dst-n.routeBase] = dev
}

// Register attaches a transport endpoint for the given (receive-side) key.
// It panics when the key already has an endpoint on n: a second endpoint
// would silently take over the first one's packets.
func (n *Node) Register(key packet.FlowKey, ep Endpoint) {
	switch {
	case n.endpoint(key) != nil:
		panic(fmt.Sprintf("netem: node %s: flow key %s is already registered", n.Name, key))
	case n.ep == nil:
		n.epKey, n.ep = key, ep
	default:
		if n.demux == nil {
			n.demux = make(map[packet.FlowKey]Endpoint)
		}
		n.demux[key] = ep
	}
}

// endpoint returns the endpoint registered under key, or nil.
func (n *Node) endpoint(key packet.FlowKey) Endpoint {
	if n.ep != nil && n.epKey == key {
		return n.ep
	}
	if n.demux == nil {
		return nil
	}
	return n.demux[key]
}

// RegisterDefault attaches a catch-all endpoint that receives every packet
// addressed to this node with no exact demux match. Per-key endpoints
// registered with Register keep priority. Packets consumed by the default
// endpoint do not count as Unroutable.
func (n *Node) RegisterDefault(ep Endpoint) {
	n.defaultEp = ep
}

// AllocPacket draws a zeroed packet from the network's free list. Senders
// that build one packet per transmission use this instead of a fresh
// allocation; the packet returns to the pool when the network releases it
// (endpoint delivery or drop).
func (n *Node) AllocPacket() *packet.Packet { return n.net.pool.Get() }

// AllocSack draws a SACK block array from the network's pool for a packet
// about to carry blocks; it returns to the pool with that packet.
func (n *Node) AllocSack() *[packet.MaxSack]packet.SackBlock { return n.net.pool.GetSack() }

// NextHop returns the device Inject sends a packet for dst out of: the
// table's entry, or else a host's uplink; nil when there is neither.
func (n *Node) NextHop(dst packet.NodeID) *Device {
	if i := int(dst) - int(n.routeBase); i >= 0 && i < len(n.routes) && n.routes[i] != nil {
		return n.routes[i]
	}
	return n.uplink
}

// Inject routes a locally generated packet out of the proper device.
func (n *Node) Inject(p *packet.Packet) {
	dev := n.NextHop(p.Flow.Dst)
	if dev == nil {
		n.Unroutable++
		n.net.pool.Put(p)
		return
	}
	dev.Send(p)
}

func (n *Node) receive(p *packet.Packet) {
	if p.Flow.Dst == n.ID {
		if ep := n.endpoint(p.Flow); ep != nil {
			// The endpoint consumes the packet synchronously; once
			// Deliver returns the packet has left the network.
			ep.Deliver(p)
			n.net.pool.Put(p)
			return
		}
		if n.defaultEp != nil {
			n.defaultEp.Deliver(p)
			n.net.pool.Put(p)
			return
		}
		n.Unroutable++
		n.net.pool.Put(p)
		return
	}
	n.Inject(p) // forward
}

// Network owns the engine, nodes, links, and packet free list of one
// simulation. The pool is engine-scoped: simulations are single-goroutine,
// so recycling needs no synchronisation.
type Network struct {
	Engine *sim.Engine
	nodes  []*Node
	pool   packet.Pool
	// wires is the wire stream of every local link, by propagation delay
	// and serialisation time (see Device.wire). Looked up only when a
	// device's packet size changes.
	wires map[wireClass]*sim.Stream
}

// wireClass is the key of a shared wire stream.
type wireClass struct{ delay, serialise sim.Time }

// Pool exposes the network's packet free list (diagnostics and benchmarks).
func (w *Network) Pool() *packet.Pool { return &w.pool }

// NewNetwork creates an empty network bound to eng.
func NewNetwork(eng *sim.Engine) *Network {
	return &Network{Engine: eng, wires: make(map[wireClass]*sim.Stream)}
}

// NewNode adds a node with a unique ID.
func (w *Network) NewNode(name string) *Node {
	return w.NewNodeWithID(packet.NodeID(len(w.nodes)+1), name)
}

// NewNodeWithID adds a node with a caller-chosen ID. Sharded fabrics
// allocate IDs from one cluster-global counter so a partitioned topology
// numbers its nodes — and therefore its flow keys and per-connection RNG
// seeds — exactly like the single-network build.
func (w *Network) NewNodeWithID(id packet.NodeID, name string) *Node {
	n := &Node{ID: id, Name: name, net: w}
	w.nodes = append(w.nodes, n)
	return n
}

// Nodes returns all nodes in creation order.
func (w *Network) Nodes() []*Node { return w.nodes }

// LinkConfig describes one full-duplex point-to-point link.
type LinkConfig struct {
	RateBps float64  // bits per second, both directions
	Delay   sim.Time // one-way propagation delay
	// QdiscFactory builds the qdisc for each direction's device; when nil a
	// large drop-tail FIFO is installed by the caller.
	QdiscFactory func() Qdisc
}

// checkLink panics on a link no device could serve, naming the link: a
// negative delay would otherwise surface at the first transmission, inside
// sim.StreamCall, far from the topology that stated it.
func checkLink(a, b string, cfg LinkConfig) {
	if cfg.RateBps <= 0 {
		panic(fmt.Sprintf("netem: link %s<->%s: non-positive rate %v", a, b, cfg.RateBps))
	}
	if cfg.Delay < 0 {
		panic(fmt.Sprintf("netem: link %s<->%s: negative delay %d ns", a, b, int64(cfg.Delay)))
	}
}

// newDevice attaches to a the transmit side of a link towards the node named
// peer.
func newDevice(a *Node, peer string, cfg LinkConfig) *Device {
	d := &Device{peer: peer, node: a, eng: a.net.Engine, rate: cfg.RateBps, delay: cfg.Delay, serialiseSize: -1}
	if cfg.QdiscFactory != nil {
		d.SetQdisc(cfg.QdiscFactory())
	}
	a.devices = append(a.devices, d)
	return d
}

// wireFor returns the stream shared by every local link with the given
// propagation delay and serialisation time.
func (w *Network) wireFor(delay, serialise sim.Time) *sim.Stream {
	c := wireClass{delay, serialise}
	s := w.wires[c]
	if s == nil {
		s = new(sim.Stream)
		w.wires[c] = s
	}
	return s
}

// Connect creates a full-duplex link between a and b, returning the two
// directional devices (a→b, b→a). Qdiscs must be set by the caller (via
// cfg.QdiscFactory or SetQdisc) before traffic flows. Panics on a
// non-positive rate or a negative delay.
func (w *Network) Connect(a, b *Node, cfg LinkConfig) (*Device, *Device) {
	checkLink(a.Name, b.Name, cfg)
	da, db := newDevice(a, b.Name, cfg), newDevice(b, a.Name, cfg)
	da.arrive, db.arrive = (*deviceArrival)(db), (*deviceArrival)(da)
	return da, db
}

// ConnectHalf creates the local half of a full-duplex link whose other
// half lives in a different Network — one direction of a cut link in a
// sharded run. peerName is the remote node's name (used only for the
// device name, which matches what Connect would have produced). Outbound
// packets serialise through the qdisc and transmitter exactly as on a
// local link and are then passed to h with their arrival time. Panics like
// Connect on a rate or delay no link can have.
func (w *Network) ConnectHalf(a *Node, peerName string, cfg LinkConfig, h Handoff) *Device {
	checkLink(a.Name, peerName, cfg)
	d := newDevice(a, peerName, cfg)
	d.handoff = h
	d.wire, d.arrive = new(sim.Stream), (*deviceArrival)(d)
	return d
}
