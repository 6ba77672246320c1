package replay

import (
	"fmt"

	"cebinae/internal/netem"
	"cebinae/internal/packet"
	"cebinae/internal/sim"
)

// SinkConfig parameterises a Sink.
type SinkConfig struct {
	// ClosedLoop enables per-flow sequence tracking and congestion
	// feedback to the Source. Off, the sink only counts packets and CE
	// marks — the lean mode for open-loop million-flow runs, which keeps
	// the sink O(1) in flow count. On, every arriving packet must carry
	// the FlowID a Source stamps; an untagged one panics.
	ClosedLoop bool
}

// feedbackMinGap rate-limits feedback to one packet per flow per gap so a
// burst of drops costs one reverse-path packet, not one per loss.
const feedbackMinGap = sim.Time(1e6) // 1 ms

// SinkStats aggregates receiver-side counters.
type SinkStats struct {
	Packets   uint64
	Bytes     uint64
	CEMarks   uint64
	Finished  uint64 // FIN packets seen
	LostBytes uint64 // sequence holes observed (closed-loop mode only)
	Feedbacks uint64 // feedback packets sent (closed-loop mode only)
}

// sinkFlow is the receiver's per-flow view in closed-loop mode: the next
// expected byte and the last feedback instant.
type sinkFlow struct {
	expect       int64
	lastFeedback sim.Time
}

// Sink terminates replay flows as the catch-all endpoint of a node: no
// per-flow demux entries, one Deliver for every arriving packet. In
// closed-loop mode it watches for sequence holes (drops upstream) and CE
// marks and answers congestion with a rate-limited feedback packet on the
// reverse route — a real packet, so it behaves identically across shard
// cuts.
type Sink struct {
	node *netem.Node
	eng  *sim.Engine
	cfg  SinkConfig

	// flows is indexed by FlowID (closed-loop mode only) and grows, by
	// doubling, to cover the largest one seen; a FIN resets its flow's
	// entry.
	flows []sinkFlow

	Stats SinkStats
}

// NewSink attaches a replay receiver to node as its default endpoint.
func NewSink(node *netem.Node, cfg SinkConfig) *Sink {
	k := &Sink{node: node, eng: node.Engine(), cfg: cfg}
	node.RegisterDefault(k)
	return k
}

// Deliver consumes one arriving packet. The packet remains owned by the
// network (the node returns it to the pool when Deliver returns).
func (k *Sink) Deliver(p *packet.Packet) {
	k.Stats.Packets++
	k.Stats.Bytes += uint64(p.Size)
	congested := false
	if p.ECN == packet.ECNCE {
		k.Stats.CEMarks++
		congested = true
	}
	fin := p.HasFlag(packet.FlagFIN)
	if fin {
		k.Stats.Finished++
	}
	if !k.cfg.ClosedLoop {
		return
	}
	id := int(p.FlowID)
	if id == 0 {
		panic(fmt.Sprintf("replay: closed-loop sink got untagged packet of flow %v (FlowID 0)", p.Flow))
	}
	if id >= len(k.flows) {
		k.grow(id)
	}
	sf := &k.flows[id]
	if p.Seq > sf.expect {
		// A sequence hole: bytes dropped somewhere upstream.
		k.Stats.LostBytes += uint64(p.Seq - sf.expect)
		congested = true
	}
	if next := p.Seq + int64(p.Size); next > sf.expect {
		sf.expect = next
	}
	if congested {
		now := k.eng.Local()
		if sf.lastFeedback == 0 || now-sf.lastFeedback >= feedbackMinGap {
			sf.lastFeedback = now
			k.feedback(p)
		}
	}
	if fin {
		k.flows[id] = sinkFlow{}
	}
}

// grow extends flows to cover id, at least doubling it, so FlowIDs 1..N
// cost about log₂ N allocations.
func (k *Sink) grow(id int) {
	flows := make([]sinkFlow, max(id+1, 2*len(k.flows), 64))
	copy(flows, k.flows)
	k.flows = flows
}

// feedback sends one congestion notification back to the source: a bare
// header on the reverse route, ACK-flagged so the Source recognises it,
// ECE-flagged when echoing a CE mark, and carrying the data packet's
// FlowID so the Source finds the flow without a key lookup.
func (k *Sink) feedback(data *packet.Packet) {
	fb := k.node.AllocPacket()
	fb.Flow = data.Flow.Reverse()
	fb.FlowID = data.FlowID
	fb.Flags = packet.FlagACK
	if data.ECN == packet.ECNCE {
		fb.Flags |= packet.FlagECE
	}
	fb.Ack = data.Seq + int64(data.Size)
	fb.Size = packet.HeaderBytes
	fb.PayloadSize = 0
	k.Stats.Feedbacks++
	k.node.Inject(fb)
}
