package tcp

import "cebinae/internal/packet"

// BIC implements Binary Increase Congestion control (Xu et al., INFOCOM
// 2004) — CUBIC's predecessor, used by the paper's Fig. 11 parking-lot
// experiment. The window binary-searches between the last-known maximum
// (where loss occurred) and the current window, with additive increase when
// far away (steps of at most smax = 32 segments) and slow increments when
// close (at least smin = 0.01 segments), then max probing beyond the old
// maximum.
type BIC struct {
	reno
	lastMax float64 // segments
}

// Linux's BIC defaults. Below bicLowWindow segments plain Reno behaviour is
// used; bicSMax and bicSMin bound the per-RTT step in segments; bicBeta is
// the multiplicative decrease factor. Typed float64 constants, so
// (1 + bicBeta) rounds as float64 arithmetic does (see cubicBeta).
const (
	bicLowWindow float64 = 14
	bicSMax      float64 = 32
	bicSMin      float64 = 0.01
	bicBeta      float64 = 0.8
)

// NewBIC returns BIC with the Linux defaults (low_window=14, smax=32,
// smin=0.01, β≈0.8).
func NewBIC() *BIC { return &BIC{} }

// Name implements CongestionControl.
func (*BIC) Name() string { return "bic" }

// Init implements CongestionControl.
func (b *BIC) Init(c *Conn) { b.lastMax = 0 }

// OnAck grows the window by the binary-increase step, scaled per ACK.
func (b *BIC) OnAck(c *Conn, rs RateSample) {
	mss := float64(packet.MSS)
	if slowStart(c, rs) {
		return
	}
	cwndSeg := c.Cwnd / mss

	var step float64 // segments per RTT
	switch {
	case cwndSeg < bicLowWindow:
		step = 1
	case cwndSeg < b.lastMax:
		dist := (b.lastMax - cwndSeg) / 2 // binary search midpoint
		if dist > bicSMax {
			dist = bicSMax
		}
		if dist < bicSMin {
			dist = bicSMin
		}
		step = dist
	default:
		// Max probing: slow start away from lastMax, capped at bicSMax.
		probe := cwndSeg - b.lastMax
		if b.lastMax == 0 {
			probe = cwndSeg
		}
		switch {
		case probe < 1:
			step = (cwndSeg - b.lastMax) + bicSMin
			if step < bicSMin {
				step = bicSMin
			}
		case probe < bicSMax:
			step = probe
		default:
			step = bicSMax
		}
	}
	// Convert a per-RTT step into a per-ACK increment.
	c.Cwnd += step * float64(rs.AckedBytes) / cwndSeg / mss * mss
}

// OnEnterRecovery applies the β reduction and updates the search maximum.
func (b *BIC) OnEnterRecovery(c *Conn) {
	mss := float64(packet.MSS)
	cwndSeg := c.Cwnd / mss
	if cwndSeg < b.lastMax {
		// Fast convergence: release bandwidth for newer flows.
		b.lastMax = cwndSeg * (1 + bicBeta) / 2
	} else {
		b.lastMax = cwndSeg
	}
	var w float64
	if cwndSeg < bicLowWindow {
		w = c.Cwnd / 2
	} else {
		w = c.Cwnd * bicBeta
	}
	reduce(c, w)
}

// OnRTO collapses the window.
func (b *BIC) OnRTO(c *Conn) {
	b.OnEnterRecovery(c)
	c.Cwnd = float64(packet.MSS)
}
