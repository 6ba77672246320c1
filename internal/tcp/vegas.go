package tcp

import (
	"cebinae/internal/packet"
	"cebinae/internal/sim"
)

// Vegas implements TCP Vegas (Brakmo & Peterson, 1994): a delay-based
// algorithm that compares the expected throughput (cwnd/baseRTT) against the
// actual throughput (cwnd/observedRTT) once per round trip and nudges the
// window so that between α = 2 and β = 4 segments are queued in the network.
// Because it backs off on rising delay long before loss, Vegas is starved by
// loss-based competitors — the effect Figures 7 and 8b of the paper study.
type Vegas struct {
	reno
	baseRTT   sim.Time // minimum RTT ever seen
	minRTT    sim.Time // minimum RTT in the current round
	cntRTT    int
	beginSeq  int64 // snd_nxt at the start of the current round
	doubleSeq int64 // pace slow-start doubling to every other RTT
}

// The canonical Vegas bounds, in queued segments.
const (
	vegasAlpha = 2 // lower bound
	vegasBeta  = 4 // upper bound
	vegasGamma = 1 // slow-start exit threshold
)

// NewVegas returns Vegas with the canonical α=2, β=4, γ=1 (segments).
func NewVegas() *Vegas { return &Vegas{} }

// Name implements CongestionControl.
func (*Vegas) Name() string { return "vegas" }

// Init implements CongestionControl.
func (v *Vegas) Init(c *Conn) {
	v.baseRTT = 0
	v.minRTT = 0
	v.cntRTT = 0
}

// OnAck implements the once-per-RTT Vegas window adjustment.
func (v *Vegas) OnAck(c *Conn, rs RateSample) {
	if rs.RTT > 0 {
		if v.baseRTT == 0 || rs.RTT < v.baseRTT {
			v.baseRTT = rs.RTT
		}
		if v.minRTT == 0 || rs.RTT < v.minRTT {
			v.minRTT = rs.RTT
		}
		v.cntRTT++
	}

	if rs.Delivered < v.beginSeq {
		return // current round still in progress
	}
	// Round complete: evaluate the Vegas estimator.
	defer func() {
		v.beginSeq = rs.Delivered + rs.InFlight
		v.minRTT = 0
		v.cntRTT = 0
	}()

	mss := float64(packet.MSS)
	if v.cntRTT < 2 || v.baseRTT == 0 || v.minRTT == 0 {
		// Not enough samples this round: fall back to Reno growth (as
		// Linux's tcp_vegas does), one MSS per round regardless of phase —
		// at tiny windows rounds can contain a single ACK, and a no-op
		// here would freeze the window permanently.
		c.Cwnd += mss
		return
	}

	cwndSeg := c.Cwnd / mss
	// diff = cwnd * (rtt − baseRTT)/rtt, in segments: the estimated number
	// of this flow's segments sitting in queues.
	rtt := float64(v.minRTT)
	base := float64(v.baseRTT)
	diff := cwndSeg * (rtt - base) / rtt

	if c.Cwnd < c.Ssthresh {
		// Slow start: double every other RTT while the queue estimate is
		// below gamma; otherwise leave slow start for linear avoidance.
		if diff > vegasGamma {
			// Clamp to the target window (cwnd·baseRTT/rtt, the window
			// that would empty the queue) plus one segment, and drop
			// ssthresh below it so the flow transitions to congestion
			// avoidance rather than re-entering this branch every round
			// (mirrors Linux's tcp_vegas).
			target := cwndSeg*base/rtt*mss + mss
			if target < c.Cwnd {
				c.Cwnd = target
			}
			if c.Cwnd < 2*mss {
				c.Cwnd = 2 * mss
			}
			if c.Ssthresh > c.Cwnd-mss {
				c.Ssthresh = c.Cwnd - mss
			}
			return
		}
		if rs.Delivered >= v.doubleSeq {
			c.Cwnd += c.Cwnd / 2 // ×1.5 per round ≈ doubling every other RTT
			v.doubleSeq = rs.Delivered + rs.InFlight + int64(c.Cwnd)
		}
		return
	}

	switch {
	case diff < vegasAlpha:
		c.Cwnd += mss
	case diff > vegasBeta:
		c.Cwnd -= mss
		if c.Cwnd < 2*mss {
			c.Cwnd = 2 * mss
		}
	}
}

// OnEnterRecovery halves the window on loss, as Vegas falls back to Reno
// behaviour under packet loss.
func (*Vegas) OnEnterRecovery(c *Conn) { reduce(c, c.Cwnd/2) }

// OnRTO collapses the window and forgets round state.
func (v *Vegas) OnRTO(c *Conn) {
	v.OnEnterRecovery(c)
	c.Cwnd = float64(packet.MSS)
	v.minRTT = 0
	v.cntRTT = 0
}
