package tcp

import (
	"cebinae/internal/packet"
	"cebinae/internal/sim"
)

// This file implements three further loss-based high-speed congestion
// control algorithms from the literature the paper's related-work section
// surveys. They broaden the workload diversity available to fairness
// experiments — each has a distinct increase/decrease law and therefore a
// distinct "aggressiveness profile" for Cebinae to regulate.

// ---------------------------------------------------------------------------
// Scalable TCP (Kelly, CCR 2003): MIMD — multiplicative increase of a=0.01
// per acked byte above the legacy window, multiplicative decrease b=0.125.
// Its per-RTT gain is proportional to the window, so it ramps (and
// re-ramps after loss) far faster than Reno on high-BDP paths.
// ---------------------------------------------------------------------------

// Scalable implements Scalable TCP.
type Scalable struct {
	reno
	// A is the per-ACK multiplicative increase; B the decrease factor.
	A float64
	B float64
	// LegacyWindow (segments) below which plain Reno behaviour applies.
	LegacyWindow float64
}

// NewScalable returns Scalable TCP with the published constants
// (a = 0.01, b = 0.125, legacy threshold 16 segments).
func NewScalable() *Scalable { return &Scalable{A: 0.01, B: 0.125, LegacyWindow: 16} }

// Name implements CongestionControl.
func (*Scalable) Name() string { return "scalable" }

// OnAck grows the window by a per acked byte (MIMD) above the legacy
// region, Reno-style below it.
func (s *Scalable) OnAck(c *Conn, rs RateSample) {
	mss := float64(packet.MSS)
	if slowStart(c, rs) {
		return
	}
	if c.Cwnd/mss < s.LegacyWindow {
		c.Cwnd += mss * mss / c.Cwnd
		return
	}
	c.Cwnd += s.A * float64(rs.AckedBytes)
}

// OnEnterRecovery applies the shallow 12.5% reduction.
func (s *Scalable) OnEnterRecovery(c *Conn) { reduce(c, c.Cwnd*(1-s.B)) }

// OnRTO collapses the window.
func (s *Scalable) OnRTO(c *Conn) {
	s.OnEnterRecovery(c)
	c.Cwnd = float64(packet.MSS)
}

// ---------------------------------------------------------------------------
// H-TCP (Leith & Shorten, PFLDnet 2004): the additive-increase step grows
// as a quadratic function of the time elapsed since the last loss event,
// and the decrease factor adapts to the observed RTT spread.
// ---------------------------------------------------------------------------

// HTCP implements H-TCP.
type HTCP struct {
	reno
	// DeltaL is the low-speed regime duration after a loss (1 s).
	DeltaL sim.Time

	lastLossAt sim.Time
	minRTT     sim.Time
	maxRTT     sim.Time
	beta       float64
}

// NewHTCP returns H-TCP with the published defaults (Δ_L = 1 s).
func NewHTCP() *HTCP { return &HTCP{DeltaL: sim.Duration(1e9), beta: 0.5} }

// Name implements CongestionControl.
func (*HTCP) Name() string { return "htcp" }

// Init implements CongestionControl.
func (h *HTCP) Init(c *Conn) {
	h.lastLossAt = 0
	h.minRTT, h.maxRTT = 0, 0
	h.beta = 0.5
}

// alphaNow computes the per-RTT additive step (segments) from the elapsed
// time since the last congestion event: α(Δ) = 1 + 10(Δ−Δ_L) + ((Δ−Δ_L)/2)².
func (h *HTCP) alphaNow(now sim.Time) float64 {
	delta := now - h.lastLossAt
	if delta <= h.DeltaL {
		return 1
	}
	d := (delta - h.DeltaL).Seconds()
	alpha := 1 + 10*d + (d/2)*(d/2)
	// Scale by 2(1−β) per the H-TCP fairness correction.
	return 2 * (1 - h.beta) * alpha
}

// OnAck applies the elapsed-time-driven additive increase.
func (h *HTCP) OnAck(c *Conn, rs RateSample) {
	if rs.RTT > 0 {
		if h.minRTT == 0 || rs.RTT < h.minRTT {
			h.minRTT = rs.RTT
		}
		if rs.RTT > h.maxRTT {
			h.maxRTT = rs.RTT
		}
	}
	mss := float64(packet.MSS)
	if slowStart(c, rs) {
		return
	}
	alpha := h.alphaNow(c.Engine().Local())
	c.Cwnd += alpha * mss * float64(rs.AckedBytes) / c.Cwnd
}

// OnEnterRecovery applies the adaptive-backoff reduction
// β = RTTmin/RTTmax clamped to [0.5, 0.8] and restarts the α clock.
func (h *HTCP) OnEnterRecovery(c *Conn) {
	if h.minRTT > 0 && h.maxRTT > 0 {
		h.beta = float64(h.minRTT) / float64(h.maxRTT)
		if h.beta < 0.5 {
			h.beta = 0.5
		}
		if h.beta > 0.8 {
			h.beta = 0.8
		}
	} else {
		h.beta = 0.5
	}
	reduce(c, c.Cwnd*h.beta)
	h.lastLossAt = c.Engine().Local()
	h.maxRTT = h.minRTT // restart the spread estimate each epoch
}

// OnRTO collapses the window and restarts the α clock.
func (h *HTCP) OnRTO(c *Conn) {
	h.OnEnterRecovery(c)
	c.Cwnd = float64(packet.MSS)
}

// ---------------------------------------------------------------------------
// TCP-Illinois (Liu, Başar & Srikant, Perf. Eval. 2008): a loss-delay
// hybrid — losses drive the decrease, but the additive-increase step is a
// concave function of the measured queueing delay, large when the queue is
// empty and tiny as delay approaches its observed maximum.
// ---------------------------------------------------------------------------

// Illinois implements TCP-Illinois.
type Illinois struct {
	reno
	AlphaMax float64 // segments/RTT when delay is minimal (10)
	AlphaMin float64 // segments/RTT at maximal delay (0.3)
	BetaMin  float64 // decrease at minimal delay (0.125)
	BetaMax  float64 // decrease at maximal delay (0.5)

	baseRTT sim.Time
	maxRTT  sim.Time
	sumRTT  sim.Time
	cntRTT  int
	alpha   float64
	beta    float64
	roundAt int64
}

// NewIllinois returns TCP-Illinois with the published defaults.
func NewIllinois() *Illinois {
	return &Illinois{AlphaMax: 10, AlphaMin: 0.3, BetaMin: 0.125, BetaMax: 0.5, alpha: 1, beta: 0.5}
}

// Name implements CongestionControl.
func (*Illinois) Name() string { return "illinois" }

// Init implements CongestionControl.
func (il *Illinois) Init(c *Conn) {
	il.baseRTT, il.maxRTT = 0, 0
	il.sumRTT, il.cntRTT = 0, 0
	il.alpha, il.beta = 1, 0.5
}

// OnAck updates delay statistics and applies the delay-modulated AIMD step.
func (il *Illinois) OnAck(c *Conn, rs RateSample) {
	if rs.RTT > 0 {
		if il.baseRTT == 0 || rs.RTT < il.baseRTT {
			il.baseRTT = rs.RTT
		}
		if rs.RTT > il.maxRTT {
			il.maxRTT = rs.RTT
		}
		il.sumRTT += rs.RTT
		il.cntRTT++
	}
	if rs.Delivered >= il.roundAt {
		il.updateParams()
		il.roundAt = rs.Delivered + rs.InFlight
	}
	mss := float64(packet.MSS)
	if slowStart(c, rs) {
		return
	}
	c.Cwnd += il.alpha * mss * float64(rs.AckedBytes) / c.Cwnd
}

// updateParams recomputes (α, β) from the average queueing delay once per
// round, per the Illinois curves.
func (il *Illinois) updateParams() {
	if il.cntRTT == 0 || il.baseRTT == 0 || il.maxRTT <= il.baseRTT {
		il.alpha, il.beta = il.AlphaMax, il.BetaMin
		il.sumRTT, il.cntRTT = 0, 0
		return
	}
	avg := il.sumRTT / sim.Time(il.cntRTT)
	da := float64(avg - il.baseRTT)       // current queueing delay
	dm := float64(il.maxRTT - il.baseRTT) // maximal observed queueing delay
	il.sumRTT, il.cntRTT = 0, 0

	// α: maximal below 10% of dm, then inversely proportional.
	d1 := 0.1 * dm
	switch {
	case da <= d1:
		il.alpha = il.AlphaMax
	default:
		// κ1/(κ2+da) hyperbola through (d1, αmax) and (dm, αmin).
		k1 := (dm - d1) * il.AlphaMin * il.AlphaMax / (il.AlphaMax - il.AlphaMin)
		k2 := k1/il.AlphaMax - d1
		il.alpha = k1 / (k2 + da)
	}
	// β: minimal below 1/8 of dm, maximal above 8/10, linear between.
	d2, d3 := 0.125*dm, 0.8*dm
	switch {
	case da <= d2:
		il.beta = il.BetaMin
	case da >= d3:
		il.beta = il.BetaMax
	default:
		il.beta = il.BetaMin + (il.BetaMax-il.BetaMin)*(da-d2)/(d3-d2)
	}
}

// OnEnterRecovery applies the delay-modulated decrease.
func (il *Illinois) OnEnterRecovery(c *Conn) { reduce(c, c.Cwnd*(1-il.beta)) }

// OnRTO collapses the window and resets the delay profile.
func (il *Illinois) OnRTO(c *Conn) {
	il.OnEnterRecovery(c)
	c.Cwnd = float64(packet.MSS)
	il.alpha, il.beta = 1, 0.5
}
