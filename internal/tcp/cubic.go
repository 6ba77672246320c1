package tcp

import (
	"math"

	"cebinae/internal/packet"
	"cebinae/internal/sim"
)

// Cubic implements RFC 8312 CUBIC congestion control: the window follows a
// cubic function of time since the last reduction, anchored at the window
// size where the loss happened (W_max), with a TCP-friendly region to avoid
// underperforming Reno at low BDP, and fast convergence.
type Cubic struct {
	reno
	wMax      float64 // segments
	epochAt   sim.Time
	k         float64 // seconds to return to wMax
	wTCP      float64 // segments
	epochInit bool
}

// RFC 8312's defaults, as Linux uses them: the cubic scaling constant C
// (segments/s³) and the multiplicative decrease factor β. They are typed
// float64 constants, so every expression over them rounds step by step as
// float64 arithmetic does: (1 − β) is 0.30000000000000004, not 0.3.
const (
	cubicC    float64 = 0.4
	cubicBeta float64 = 0.7
)

// NewCubic returns CUBIC with RFC 8312 defaults (C=0.4, β=0.7, fast
// convergence on), matching Linux.
func NewCubic() *Cubic { return &Cubic{} }

// Name implements CongestionControl.
func (*Cubic) Name() string { return "cubic" }

// Init implements CongestionControl.
func (cu *Cubic) Init(c *Conn) { cu.reset() }

func (cu *Cubic) reset() {
	cu.wMax = 0
	cu.epochInit = false
}

// OnAck grows the window along the cubic (or Reno-friendly) trajectory.
func (cu *Cubic) OnAck(c *Conn, rs RateSample) {
	mss := float64(packet.MSS)
	if slowStart(c, rs) {
		return
	}

	now := c.Engine().Local()
	cwndSeg := c.Cwnd / mss
	if !cu.epochInit {
		cu.epochInit = true
		cu.epochAt = now
		if cwndSeg < cu.wMax {
			cu.k = math.Cbrt((cu.wMax - cwndSeg) / cubicC)
		} else {
			cu.k = 0
			cu.wMax = cwndSeg
		}
		cu.wTCP = cwndSeg
	}

	t := (now - cu.epochAt).Seconds()
	// Target the cubic curve one RTT ahead, per RFC 8312 §4.1:
	// W_cubic(t) = C(t−K)³ + W_max.
	rtt := c.SRTT().Seconds()
	target := cubicC*math.Pow(t+rtt-cu.k, 3) + cu.wMax

	// Reno-friendly window (RFC 8312 §4.2).
	if rtt > 0 {
		cu.wTCP += 3 * (1 - cubicBeta) / (1 + cubicBeta) * (float64(rs.AckedBytes) / mss / cwndSeg)
	}
	if target < cu.wTCP {
		target = cu.wTCP
	}

	var inc float64
	if target > cwndSeg {
		inc = (target - cwndSeg) / cwndSeg * float64(rs.AckedBytes) / mss * mss
		// Cap growth at slow-start pace.
		if inc > float64(rs.AckedBytes) {
			inc = float64(rs.AckedBytes)
		}
	} else {
		inc = mss / (100 * cwndSeg) // minimal probing growth
	}
	c.Cwnd += inc
}

// OnEnterRecovery applies the β reduction and records W_max. Fast
// convergence shrinks W_max further when losses come before the previous
// W_max was reached, releasing bandwidth to newer flows.
func (cu *Cubic) OnEnterRecovery(c *Conn) {
	mss := float64(packet.MSS)
	cwndSeg := c.Cwnd / mss
	if cwndSeg < cu.wMax {
		cu.wMax = cwndSeg * (1 + cubicBeta) / 2
	} else {
		cu.wMax = cwndSeg
	}
	reduce(c, c.Cwnd*cubicBeta)
	cu.epochInit = false
}

// OnRTO collapses the window and resets the cubic epoch.
func (cu *Cubic) OnRTO(c *Conn) {
	cu.OnEnterRecovery(c)
	c.Cwnd = float64(packet.MSS)
}
