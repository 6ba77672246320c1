package tcp

import "cebinae/internal/packet"

// BIC implements Binary Increase Congestion control (Xu et al., INFOCOM
// 2004) — CUBIC's predecessor, used by the paper's Fig. 11 parking-lot
// experiment. The window binary-searches between the last-known maximum
// (where loss occurred) and the current window, with additive increase when
// far away (> SMax) and slow increments when close (< SMin), then max probing
// beyond the old maximum.
type BIC struct {
	reno
	// LowWindow is the threshold (in segments) below which plain Reno
	// behaviour is used. SMax/SMin bound per-RTT step sizes in segments.
	LowWindow float64
	SMax      float64
	SMin      float64
	Beta      float64

	lastMax float64 // segments
}

// NewBIC returns BIC with the Linux defaults (low_window=14, smax=32,
// smin=0.01, β≈0.8).
func NewBIC() *BIC {
	return &BIC{LowWindow: 14, SMax: 32, SMin: 0.01, Beta: 0.8}
}

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
	case cwndSeg < b.LowWindow:
		step = 1
	case cwndSeg < b.lastMax:
		dist := (b.lastMax - cwndSeg) / 2 // binary search midpoint
		if dist > b.SMax {
			dist = b.SMax
		}
		if dist < b.SMin {
			dist = b.SMin
		}
		step = dist
	default:
		// Max probing: slow start away from lastMax, capped at SMax.
		probe := cwndSeg - b.lastMax
		if b.lastMax == 0 {
			probe = cwndSeg
		}
		switch {
		case probe < 1:
			step = (cwndSeg - b.lastMax) + b.SMin
			if step < b.SMin {
				step = b.SMin
			}
		case probe < b.SMax:
			step = probe
		default:
			step = b.SMax
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
		b.lastMax = cwndSeg * (1 + b.Beta) / 2
	} else {
		b.lastMax = cwndSeg
	}
	var w float64
	if cwndSeg < b.LowWindow {
		w = c.Cwnd / 2
	} else {
		w = c.Cwnd * b.Beta
	}
	reduce(c, w)
}

// OnRTO collapses the window.
func (b *BIC) OnRTO(c *Conn) {
	b.OnEnterRecovery(c)
	c.Cwnd = float64(packet.MSS)
}
