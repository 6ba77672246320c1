package tcp

import (
	"math"

	"cebinae/internal/packet"
	"cebinae/internal/sim"
)

// Cubic implements RFC 8312 CUBIC congestion control: the window follows a
// cubic function of time since the last reduction, anchored at the window
// size where the loss happened (W_max), with a TCP-friendly region to avoid
// underperforming Reno at low BDP, and optional fast convergence.
type Cubic struct {
	reno
	// C is the cubic scaling constant (segments/s³); Beta the
	// multiplicative decrease factor. RFC 8312 defaults.
	C    float64
	Beta float64
	// FastConvergence shrinks W_max further when losses come before the
	// previous W_max was reached, releasing bandwidth to newer flows.
	FastConvergence bool

	wMax      float64 // segments
	epochAt   sim.Time
	originW   float64 // segments at epoch start
	k         float64 // seconds to return to wMax
	ackCount  float64 // for Reno-friendly window estimate
	wTCP      float64 // segments
	epochInit bool
}

// NewCubic returns CUBIC with RFC 8312 defaults (C=0.4, β=0.7, fast
// convergence on), matching Linux.
func NewCubic() *Cubic {
	return &Cubic{C: 0.4, Beta: 0.7, FastConvergence: true}
}

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
		cu.originW = cwndSeg
		if cwndSeg < cu.wMax {
			cu.k = math.Cbrt((cu.wMax - cwndSeg) / cu.C)
		} else {
			cu.k = 0
			cu.wMax = cwndSeg
		}
		cu.ackCount = 0
		cu.wTCP = cwndSeg
	}

	t := (now - cu.epochAt).Seconds()
	// Target the cubic curve one RTT ahead, per RFC 8312 §4.1:
	// W_cubic(t) = C(t−K)³ + W_max.
	rtt := c.SRTT().Seconds()
	target := cu.C*math.Pow(t+rtt-cu.k, 3) + cu.wMax

	// Reno-friendly window (RFC 8312 §4.2).
	cu.ackCount += float64(rs.AckedBytes) / mss
	if rtt > 0 {
		cu.wTCP += 3 * (1 - cu.Beta) / (1 + cu.Beta) * (float64(rs.AckedBytes) / mss / cwndSeg)
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

// OnEnterRecovery applies the β reduction and records W_max.
func (cu *Cubic) OnEnterRecovery(c *Conn) {
	mss := float64(packet.MSS)
	cwndSeg := c.Cwnd / mss
	if cu.FastConvergence && cwndSeg < cu.wMax {
		cu.wMax = cwndSeg * (1 + cu.Beta) / 2
	} else {
		cu.wMax = cwndSeg
	}
	reduce(c, c.Cwnd*cu.Beta)
	cu.epochInit = false
}

// OnRTO collapses the window and resets the cubic epoch.
func (cu *Cubic) OnRTO(c *Conn) {
	cu.OnEnterRecovery(c)
	c.Cwnd = float64(packet.MSS)
}
