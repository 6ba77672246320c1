package tcp

import (
	"cebinae/internal/packet"
	"cebinae/internal/sim"
)

// bbrState enumerates the BBRv1 state machine.
type bbrState int

const (
	bbrStartup bbrState = iota
	bbrDrain
	bbrProbeBW
	bbrProbeRTT
)

func (s bbrState) String() string {
	switch s {
	case bbrStartup:
		return "STARTUP"
	case bbrDrain:
		return "DRAIN"
	case bbrProbeBW:
		return "PROBE_BW"
	default:
		return "PROBE_RTT"
	}
}

// bbrHighGain is 2/ln(2), the startup gain that doubles delivery rate each
// round.
const bbrHighGain = 2.88539

// bbrPacingGainCycle is the PROBE_BW gain cycle: probe up, drain, then six
// steady rounds.
var bbrPacingGainCycle = [8]float64{1.25, 0.75, 1, 1, 1, 1, 1, 1}

// BBR implements BBRv1 (Cardwell et al., 2016): a model-based algorithm that
// estimates the bottleneck bandwidth (windowed-max delivery rate) and the
// round-trip propagation delay (windowed-min RTT), paces at gain-cycled
// multiples of the bandwidth estimate, and caps inflight at a multiple of
// the estimated BDP. BBRv1 largely ignores packet loss, which is why a
// single BBR flow can claim a large share against many loss-based flows —
// the behaviour the paper's Table 2 and Fig. 8a exercise.
type BBR struct {
	// btlBw filter: windowed max over bbrBtlBwWindowRounds rounds.
	bwFilter maxFilter
	// rtProp: windowed min RTT.
	rtProp      sim.Time
	rtPropStamp sim.Time

	state      bbrState
	pacingGain float64
	cwndGain   float64

	fullBW       float64
	fullBWCount  int
	filledPipe   bool
	cycleIndex   int
	cycleStamp   sim.Time
	probeRTTDone sim.Time
	priorCwnd    float64

	roundStart bool
	roundCount int64
}

const (
	bbrBtlBwWindowRounds = 10
	bbrRTpropWindow      = sim.Time(10e9)  // 10 s
	bbrProbeRTTDuration  = sim.Time(200e6) // 200 ms
	bbrMinCwndSegments   = 4
)

// NewBBR returns a BBRv1 instance in STARTUP.
func NewBBR() *BBR {
	return &BBR{state: bbrStartup, pacingGain: bbrHighGain, cwndGain: bbrHighGain}
}

// Name implements CongestionControl.
func (*BBR) Name() string { return "bbr" }

// Init implements CongestionControl.
func (b *BBR) Init(c *Conn) {
	c.Cwnd = initialCwndSegments * packet.MSS
}

// State returns the current state name (diagnostics).
func (b *BBR) State() string { return b.state.String() }

// BtlBw returns the bandwidth estimate in bytes/second.
func (b *BBR) BtlBw() float64 { return b.bwFilter.max() }

// OnAck runs the BBR model update on every delivery.
func (b *BBR) OnAck(c *Conn, rs RateSample) { b.update(c, rs) }

// OnRecoveryAck keeps the model updated during loss recovery.
func (b *BBR) OnRecoveryAck(c *Conn, rs RateSample) { b.update(c, rs) }

func (b *BBR) update(c *Conn, rs RateSample) {
	now := c.Engine().Local()

	// Round accounting (BBR keeps its own to drive the bw filter window).
	b.roundStart = rs.RoundStart
	if rs.RoundStart {
		b.roundCount++
	}

	// Update the bandwidth filter; app-limited samples may only raise it.
	if rs.DeliveryRate > 0 && (!rs.IsAppLimited || rs.DeliveryRate > b.bwFilter.max()) {
		b.bwFilter.update(b.roundCount, rs.DeliveryRate, bbrBtlBwWindowRounds)
	}

	// Update the min-RTT estimate. Expiry must be decided before the
	// filter refreshes its stamp: a stale-but-refreshed filter is exactly
	// the condition that sends BBR into PROBE_RTT.
	rtPropExpired := b.rtProp > 0 && now-b.rtPropStamp > bbrRTpropWindow
	if rs.RTT > 0 && (b.rtProp == 0 || rs.RTT <= b.rtProp || rtPropExpired) {
		b.rtProp = rs.RTT
		b.rtPropStamp = now
	}

	b.checkFullPipe(rs)
	b.checkDrain(c, rs)
	b.updateCycle(c, rs, now)
	b.checkProbeRTT(c, rs, now, rtPropExpired)
	b.setCwnd(c, rs)
}

func (b *BBR) checkFullPipe(rs RateSample) {
	if b.filledPipe || !b.roundStart || rs.IsAppLimited {
		return
	}
	if b.bwFilter.max() >= b.fullBW*1.25 {
		b.fullBW = b.bwFilter.max()
		b.fullBWCount = 0
		return
	}
	b.fullBWCount++
	if b.fullBWCount >= 3 {
		b.filledPipe = true
		if b.state == bbrStartup {
			b.state = bbrDrain
			b.pacingGain = 1 / bbrHighGain
			b.cwndGain = bbrHighGain
		}
	}
}

func (b *BBR) checkDrain(c *Conn, rs RateSample) {
	if b.state == bbrDrain && float64(rs.InFlight) <= b.bdp(1.0) {
		b.enterProbeBW(c.Engine().Local())
	}
}

func (b *BBR) enterProbeBW(now sim.Time) {
	b.state = bbrProbeBW
	b.cwndGain = 2
	// Start the cycle at a random-ish phase; deterministically use phase 2
	// (gain 1) to avoid synchronised probing across flows being an artifact.
	b.cycleIndex = 2
	b.pacingGain = bbrPacingGainCycle[b.cycleIndex]
	b.cycleStamp = now
}

func (b *BBR) updateCycle(c *Conn, rs RateSample, now sim.Time) {
	if b.state != bbrProbeBW {
		return
	}
	elapsed := now - b.cycleStamp
	advance := false
	switch {
	case b.pacingGain > 1:
		// Probe until inflight reaches the probed BDP (or a loss event
		// would cap it); at least one rtProp.
		advance = elapsed > b.rtProp && float64(rs.InFlight) >= b.bdp(b.pacingGain)
		if elapsed > 2*b.rtProp {
			advance = true
		}
	case b.pacingGain < 1:
		// Drain until inflight is at or below the unprobed BDP.
		advance = float64(rs.InFlight) <= b.bdp(1.0) || elapsed > b.rtProp
	default:
		advance = elapsed > b.rtProp
	}
	if advance {
		b.cycleIndex = (b.cycleIndex + 1) % len(bbrPacingGainCycle)
		b.pacingGain = bbrPacingGainCycle[b.cycleIndex]
		b.cycleStamp = now
	}
}

func (b *BBR) checkProbeRTT(c *Conn, rs RateSample, now sim.Time, expired bool) {
	if b.state != bbrProbeRTT && expired {
		b.state = bbrProbeRTT
		b.pacingGain = 1
		b.cwndGain = 1
		b.priorCwnd = c.Cwnd
		b.probeRTTDone = 0
	}
	if b.state == bbrProbeRTT {
		minCwnd := float64(bbrMinCwndSegments * packet.MSS)
		if b.probeRTTDone == 0 && float64(rs.InFlight) <= minCwnd {
			b.probeRTTDone = now + bbrProbeRTTDuration
		}
		if b.probeRTTDone != 0 && now > b.probeRTTDone {
			b.rtPropStamp = now
			if c.Cwnd < b.priorCwnd {
				c.Cwnd = b.priorCwnd
			}
			if b.filledPipe {
				b.enterProbeBW(now)
			} else {
				b.state = bbrStartup
				b.pacingGain = bbrHighGain
				b.cwndGain = bbrHighGain
			}
		}
	}
}

// bdp returns gain × (btlBw × rtProp) in bytes, or a large fallback before
// the model has estimates.
func (b *BBR) bdp(gain float64) float64 {
	bw := b.bwFilter.max()
	if bw == 0 || b.rtProp == 0 {
		return 1 << 40
	}
	return gain * bw * b.rtProp.Seconds()
}

func (b *BBR) setCwnd(c *Conn, rs RateSample) {
	minCwnd := float64(bbrMinCwndSegments * packet.MSS)
	if b.state == bbrProbeRTT {
		c.Cwnd = minCwnd
		return
	}
	target := b.bdp(b.cwndGain)
	if target == 1<<40 {
		return // keep the initial window until the model warms up
	}
	// Grow towards target by at most newly acked bytes (packet
	// conservation), never below the floor.
	if c.Cwnd < target {
		c.Cwnd += float64(rs.AckedBytes)
		if c.Cwnd > target {
			c.Cwnd = target
		}
	} else {
		c.Cwnd = target
	}
	if c.Cwnd < minCwnd {
		c.Cwnd = minCwnd
	}
}

// OnEnterRecovery: BBRv1 does not reduce its rate on loss; it conservatively
// caps the window at the current inflight for one round (as Linux does).
func (b *BBR) OnEnterRecovery(c *Conn) {
	b.priorCwnd = c.Cwnd
	inflight := float64(c.InFlight())
	min := float64(bbrMinCwndSegments * packet.MSS)
	if inflight < min {
		inflight = min
	}
	c.Ssthresh = c.Cwnd // unused by BBR, kept coherent
	c.Cwnd = inflight
}

// OnExitRecovery restores the model-driven window.
func (b *BBR) OnExitRecovery(c *Conn) {
	if c.Cwnd < b.priorCwnd {
		c.Cwnd = b.priorCwnd
	}
}

// OnRTO collapses to the minimal window; the model estimates survive.
func (b *BBR) OnRTO(c *Conn) {
	b.priorCwnd = c.Cwnd
	c.Cwnd = float64(packet.MSS)
}

// PacingRate paces at pacingGain × btlBw.
func (b *BBR) PacingRate(c *Conn) float64 {
	bw := b.bwFilter.max()
	if bw == 0 {
		// Before any estimate: pace at initial cwnd / initial RTT guess.
		rtt := c.SRTT()
		if rtt == 0 {
			return 0 // unpaced until the first RTT sample
		}
		bw = c.Cwnd / rtt.Seconds()
	}
	return b.pacingGain * bw
}

// maxFilter is a windowed maximum over a round-indexed sample stream (a
// simplified form of the Kathleen Nichols windowed min/max estimator).
type maxFilter struct {
	samples []struct {
		round int64
		v     float64
	}
}

func (f *maxFilter) update(round int64, v float64, window int64) {
	// Evict expired samples and any samples dominated by the new value.
	keep := f.samples[:0]
	for _, s := range f.samples {
		if s.round >= round-window && s.v > v {
			keep = append(keep, s)
		}
	}
	f.samples = append(keep, struct {
		round int64
		v     float64
	}{round, v})
}

func (f *maxFilter) max() float64 {
	m := 0.0
	for _, s := range f.samples {
		if s.v > m {
			m = s.v
		}
	}
	return m
}
