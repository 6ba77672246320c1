package core

import "cebinae/internal/packet"

// Fluid fast-forward support: when the engine skips a quiescent stretch
// (internal/fluid), the Cebinae control plane keeps firing at its pinned
// rotation/configure deadlines, but no packets traverse the data plane in
// between. FluidAdvance replays the egress-pipeline accounting those
// packets would have performed, so the next recompute polls a
// heavy-hitter cache and port counter that look exactly like steady
// traffic. The frozen queue contents need nothing: the data plane keeps no
// stamp on them.

// FlowBytes is one flow's share of a fluid-advanced stretch, in wire
// bytes and packets. Callers pass a deterministically ordered slice.
type FlowBytes struct {
	Flow    packet.FlowKey
	Bytes   int64
	Packets uint64
}

// FluidAdvance credits one skipped stretch's worth of steady traffic
// through the qdisc as Enqueue and Dequeue would have, in aggregate:
// per-flow heavy-hitter observations, the port TX counter the
// utilisation test reads, TX stats, the aggregate counter, and each flow's
// LBF byte bank — the one Qdisc.bank names, as Enqueue would charge it
// (the next rotation decays it by a full round's allowance; without the
// credit it would under-run and distort the first packet-level round
// after re-entry). The control-plane clocks (baseRoundTime/roundTime) are
// not touched: rotations fire on their absolute schedule during skips.
func (q *Qdisc) FluidAdvance(flows []FlowBytes) {
	var total int64
	var pkts uint64
	for i := range flows {
		f := &flows[i]
		if f.Bytes <= 0 {
			continue
		}
		q.cache.Observe(f.Flow, f.Bytes)
		b, _, _ := q.bank(f.Flow)
		*b += float64(f.Bytes)
		total += f.Bytes
		pkts += f.Packets
	}
	q.totalBytes += float64(total)
	q.portTxBytes += uint64(total)
	q.Stats.TxBytes += uint64(total)
	q.Stats.TxPackets += pkts
	q.Stats.Enqueued += pkts
}
