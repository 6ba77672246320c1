package core

import (
	"cebinae/internal/packet"
)

// Per-flow ⊤ tracking is the extension the paper's §7 ("Providing provable
// convergence properties") sketches: instead of one aggregate allowance for
// the whole bottlenecked group, each ⊤ flow gets its own taxed allowance —
// trading the statistical-multiplexing headroom of the aggregate for
// stronger isolation between bottlenecked flows (the paper postulates this
// yields fair-queuing-equivalent convergence under eventual stability).
//
// Enabled with Params.PerFlowTop. The ⊥ group is unchanged.

// topFlowState is the LBF bank and allowance of one ⊤ flow.
type topFlowState struct {
	bytes float64 // bank within the current round
	rate  float64 // taxed allowance, bytes/second
}

// perFlowEnqueue classifies a ⊤ packet against its own flow's allowance.
// Mirrors the aggregate path of Enqueue; returns false when the packet must
// be dropped.
func (q *Qdisc) perFlowEnqueue(p *packet.Packet, totalAfter float64) bool {
	st := q.topState[p.Flow]
	if st == nil {
		// Freshly promoted flow with no installed state yet: treat as ⊥
		// for this packet (false negatives are tolerable — §4).
		return q.bottomEnqueue(p, totalAfter)
	}
	dtSec := q.params.DT.Seconds()
	agg := q.aggregateSize(st.rate, st.rate)
	after := st.bytes
	if after < agg {
		after = agg
	}
	after += float64(p.Size)

	pastHead := after - st.rate*dtSec
	pastTail := pastHead - st.rate*dtSec
	switch {
	case pastHead <= 0:
		q.totalBytes = totalAfter
		st.bytes = after
		q.push(q.headq, p)
	case pastTail <= 0:
		if q.params.MarkECN && p.ECN == packet.ECNECT {
			p.ECN = packet.ECNCE
			q.Stats.ECNMarked++
		}
		q.Stats.Delayed++
		q.totalBytes = totalAfter
		st.bytes = after
		q.push(1-q.headq, p)
	default:
		q.Stats.LBFDrops++
		return false
	}
	return true
}

// bottomEnqueue runs the ⊥ group's aggregate admission (shared by the
// normal path and the per-flow fallback).
func (q *Qdisc) bottomEnqueue(p *packet.Packet, totalAfter float64) bool {
	dtSec := q.params.DT.Seconds()
	g := groupBottom
	rHead := q.qrate[q.headq][g]
	rTail := q.qrate[1-q.headq][g]
	agg := q.aggregateSize(rHead, rTail)
	after := q.groupBytes[g]
	if after < agg {
		after = agg
	}
	after += float64(p.Size)

	pastHead := after - rHead*dtSec
	pastTail := pastHead - rTail*dtSec
	switch {
	case pastHead <= 0:
		q.totalBytes = totalAfter
		q.groupBytes[g] = after
		q.push(q.headq, p)
	case pastTail <= 0:
		if q.params.MarkECN && p.ECN == packet.ECNECT {
			p.ECN = packet.ECNCE
			q.Stats.ECNMarked++
		}
		q.Stats.Delayed++
		q.totalBytes = totalAfter
		q.groupBytes[g] = after
		q.push(1-q.headq, p)
	default:
		q.Stats.LBFDrops++
		return false
	}
	return true
}

// perFlowRotate retires one round of every ⊤ flow's allowance.
func (q *Qdisc) perFlowRotate(dtSec float64) {
	for _, st := range q.topState {
		st.bytes -= st.rate * dtSec
		if st.bytes < 0 {
			st.bytes = 0
		}
	}
}

// applyPerFlow installs per-flow allowances from a recomputation: each ⊤
// flow's taxed measured rate. Flows leaving ⊤ drop their state; arriving
// flows inherit a zeroed bank.
func (q *Qdisc) applyPerFlow(rates map[packet.FlowKey]float64) {
	next := make(map[packet.FlowKey]*topFlowState, len(rates))
	for f, r := range rates {
		if old, ok := q.topState[f]; ok {
			old.rate = r
			next[f] = old
		} else {
			next[f] = &topFlowState{rate: r}
		}
	}
	q.topState = next
}
