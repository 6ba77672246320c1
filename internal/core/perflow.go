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
// Enabled with Params.PerFlowTop, it changes only which bank the one LBF
// test charges: Qdisc.bank names a ⊤ flow's own topFlowState instead of the
// ⊤ group bank. Enqueue's admission, rotate's drain and FluidAdvance's
// credit are the same code for every bank. The ⊥ group is unchanged.

// topFlowState is the LBF bank and allowance of one ⊤ flow.
type topFlowState struct {
	bytes float64 // bank within the current round
	rate  float64 // taxed allowance, bytes/second
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
