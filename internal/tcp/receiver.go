package tcp

import (
	"cebinae/internal/netem"
	"cebinae/internal/packet"
	"cebinae/internal/sim"
)

// ReceiverConfig parameterises the receiving endpoint.
type ReceiverConfig struct {
	Key packet.FlowKey
	// DelAckCount coalesces ACKs: one ACK per this many in-order data
	// segments (default 1 = ACK every segment). Out-of-order arrivals
	// always trigger an immediate (duplicate) ACK.
	DelAckCount int
}

// delAckTimeout flushes a pending delayed ACK.
const delAckTimeout = sim.Time(200e6) // 200 ms

// ReceiverStats aggregates receive-side counters.
type ReceiverStats struct {
	RxPackets uint64
	RxBytes   uint64
	// GoodputBytes counts in-order application bytes delivered (cumulative
	// ACK advances) — the paper's goodput metric.
	GoodputBytes int64
	AcksSent     uint64
}

// interval is a half-open received byte range [start, end).
type interval struct{ start, end int64 }

// Receiver is the data sink. It tracks the cumulative ACK point, buffers
// out-of-order intervals, and emits ACKs (delayed or immediate) back to
// the sender. The transport is not ECN-capable: its senders send Not-ECT,
// so no queue marks their data and the receiver has no CE to echo.
type Receiver struct {
	cfg  ReceiverConfig
	eng  *sim.Engine
	node *netem.Node

	rcvNxt   int64
	ooo      intervalSet // sorted, disjoint, all > rcvNxt
	pending  int
	delTimer sim.Timer

	Stats ReceiverStats

	// GoodputAt, when non-nil, observes (time, newBytes) on every cumACK
	// advance; metrics hook.
	GoodputAt func(t sim.Time, newBytes int64)
}

// NewReceiver creates the sink and registers it for the data flow key on
// node dst.
func NewReceiver(eng *sim.Engine, dst *netem.Node, cfg ReceiverConfig) *Receiver {
	if cfg.DelAckCount == 0 {
		cfg.DelAckCount = 1
	}
	r := &Receiver{cfg: cfg, eng: eng, node: dst}
	dst.Register(cfg.Key, r)
	return r
}

// recvDelAck is the delayed-ACK timer handler: a named pointer type over
// Receiver so arming the timer allocates no closure.
type recvDelAck Receiver

func (h *recvDelAck) OnEvent(any) { (*Receiver)(h).sendAck() }

// Deliver processes an arriving data segment (netem.Endpoint).
func (r *Receiver) Deliver(p *packet.Packet) {
	r.Stats.RxPackets++
	r.Stats.RxBytes += uint64(p.Size)
	if !p.IsData() {
		return
	}

	end := p.Seq + int64(p.PayloadSize)
	switch {
	case end <= r.rcvNxt:
		// Entirely duplicate data: immediate ACK restates rcv_nxt.
		r.sendAck()
	case p.Seq > r.rcvNxt:
		// Out of order: buffer and emit an immediate duplicate ACK.
		r.ooo.add(p.Seq, end)
		r.sendAck()
	default:
		// In-order (possibly overlapping) data: advance and absorb any
		// contiguous buffered intervals.
		old := r.rcvNxt
		r.rcvNxt = r.ooo.nextUncovered(end)
		r.ooo.trimBelow(r.rcvNxt)
		advanced := r.rcvNxt - old
		r.Stats.GoodputBytes += advanced
		if r.GoodputAt != nil {
			r.GoodputAt(r.eng.Now(), advanced)
		}
		r.pending++
		if r.pending >= r.cfg.DelAckCount || r.ooo.len() > 0 {
			r.sendAck()
		} else if !r.delTimer.Pending() {
			r.eng.ArmTimer(&r.delTimer, delAckTimeout, (*recvDelAck)(r), nil)
		}
	}
}

func (r *Receiver) sendAck() {
	r.eng.StopTimer(&r.delTimer)
	r.pending = 0
	ack := r.node.AllocPacket()
	ack.Flow = r.cfg.Key.Reverse()
	ack.Ack = r.rcvNxt
	ack.Flags = packet.FlagACK
	ack.Size = packet.HeaderBytes
	// Attach up to three SACK blocks (RFC 2018), lowest first, so the
	// sender's scoreboard repairs the earliest holes first. The array
	// comes from the network's pool and goes back with the ACK, so only
	// an ACK that carries blocks holds one.
	if n := min(len(r.ooo.ivs), packet.MaxSack); n > 0 {
		ack.SACK = r.node.AllocSack()
		for i, iv := range r.ooo.ivs[:n] {
			ack.SACK[i] = packet.SackBlock{Start: iv.start, End: iv.end}
		}
		ack.NSack = uint8(n)
	}
	r.Stats.AcksSent++
	r.node.Inject(ack)
}
