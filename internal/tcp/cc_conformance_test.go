package tcp

import (
	"math"
	"testing"

	"cebinae/internal/packet"
	"cebinae/internal/sim"
)

// Conformance tests: scripted ACK/loss traces against the published
// behaviour of each algorithm — the CUBIC window curve of RFC 8312, the
// BBRv1 state machine of Cardwell et al., BIC's binary search and Vegas's
// α/β/γ rules. Unlike the unit tests in cc_test.go (single hooks), these
// drive whole trajectories and pin the shape of the response.

// advanceClock moves the detached connection's engine forward by dt.
func advanceClock(c *Conn, dt sim.Time) {
	c.eng.ScheduleCall(dt, sim.Func(func() {}), nil)
	c.eng.RunAll()
}

// TestCubicCurveShape drives CUBIC through a full post-loss epoch with
// ACK-clocked rounds and checks the three regions of the RFC 8312 curve:
// concave deceleration toward W_max, a plateau with W(K) ≈ W_max at
// t = K = cbrt((W_max − W_max·β)/C), and convex acceleration beyond K.
func TestCubicCurveShape(t *testing.T) {
	cu := NewCubic()
	c := ccConn(cu)
	mss := float64(packet.MSS)
	c.srtt = sim.Duration(100e6) // 100 ms RTT

	c.Cwnd = 400 * mss
	c.cc.OnEnterRecovery(c) // wMax = 400 segs, cwnd -> 280
	c.Ssthresh = c.Cwnd     // congestion avoidance from here

	k := math.Cbrt((400 - 280) / cubicC) // ≈ 6.69 s
	const step = sim.Time(100e6)         // one RTT per step
	stepSec := step.Seconds()
	steps := int(k/stepSec*1.45) + 1

	traj := make([]float64, 0, steps+1)
	traj = append(traj, c.Cwnd/mss)
	for i := 0; i < steps; i++ {
		c.eng.ScheduleCall(step, sim.Func(func() {
			// One RTT delivers a full window of ACKs.
			for n := int(c.Cwnd / mss); n > 0; n-- {
				c.cc.OnAck(c, RateSample{AckedBytes: int64(mss)})
			}
		}), nil)
		c.eng.RunAll()
		traj = append(traj, c.Cwnd/mss)
	}

	for i := 1; i < len(traj); i++ {
		if traj[i] < traj[i-1]-1e-9 {
			t.Fatalf("window shrank without loss at step %d: %.2f -> %.2f segs", i, traj[i-1], traj[i])
		}
	}
	atK := traj[int(k/stepSec)]
	if atK < 0.95*400 || atK > 1.05*400 {
		t.Fatalf("W(K) = %.1f segs, want ≈ W_max = 400 (RFC 8312 plateau)", atK)
	}
	avgInc := func(from, to float64) float64 { // seconds -> segs/step
		lo, hi := int(from/stepSec), int(to/stepSec)
		return (traj[hi] - traj[lo]) / float64(hi-lo)
	}
	early := avgInc(0.5, 1.5)     // deep in the concave region
	nearK := avgInc(k-1.0, k)     // flattening into the plateau
	late := avgInc(1.15*k, 1.4*k) // convex probing past W_max
	if early < 2*nearK {
		t.Errorf("concave region not decelerating: early %.2f segs/RTT vs near-K %.2f", early, nearK)
	}
	if late < 2*nearK {
		t.Errorf("convex region not accelerating: late %.2f segs/RTT vs near-K %.2f", late, nearK)
	}
}

// TestBBRStartupDrainProbeBW walks the BBRv1 state machine along the
// published path: STARTUP while the bandwidth estimate still grows,
// DRAIN once three flat rounds signal a full pipe (with pacing below the
// estimate to empty the queue), then PROBE_BW when inflight falls to the
// estimated BDP.
func TestBBRStartupDrainProbeBW(t *testing.T) {
	b := NewBBR()
	c := ccConn(b)
	rtt := sim.Duration(20e6)
	ack := func(rate float64, inflight int64) {
		c.cc.OnAck(c, RateSample{AckedBytes: 1448, RTT: rtt, DeliveryRate: rate, RoundStart: true, InFlight: inflight})
	}

	// Bandwidth still growing ≥ 1.25× per round: must stay in STARTUP.
	for _, rate := range []float64{0.4e6, 0.8e6, 1.25e6} {
		ack(rate, 100000)
		if b.State() != "STARTUP" {
			t.Fatalf("left STARTUP while the estimate was still growing (state %s)", b.State())
		}
	}
	if pr := b.PacingRate(c); pr < 2.8*b.BtlBw() {
		t.Errorf("STARTUP pacing %.0f, want high-gain ≈ 2.885 × btlBw %.0f", pr, b.BtlBw())
	}

	// Three plateaued rounds: full-pipe detection must fire and enter
	// DRAIN while inflight is far above the BDP (1.25e6 B/s × 20 ms = 25 kB).
	for i := 0; i < 3; i++ {
		ack(1.25e6, 100000)
	}
	if b.State() != "DRAIN" {
		t.Fatalf("three flat rounds should enter DRAIN, state %s", b.State())
	}
	if pr := b.PacingRate(c); pr >= b.BtlBw() {
		t.Errorf("DRAIN must pace below the bottleneck estimate: %.0f vs %.0f", pr, b.BtlBw())
	}

	// Queue drained (inflight ≤ BDP): advance to PROBE_BW.
	ack(1.25e6, 20000)
	if b.State() != "PROBE_BW" {
		t.Fatalf("drained pipe should enter PROBE_BW, state %s", b.State())
	}
}

// TestBBRProbeRTTCycle pins the PROBE_RTT leg: when the min-RTT filter
// goes 10 s without a new minimum the algorithm must drop to 4 MSS of
// inflight, hold for 200 ms, then restore the prior window and return to
// PROBE_BW.
func TestBBRProbeRTTCycle(t *testing.T) {
	b := NewBBR()
	c := ccConn(b)
	mss := float64(packet.MSS)
	rtt := sim.Duration(20e6)
	ack := func(obsRTT sim.Time, inflight int64) {
		c.cc.OnAck(c, RateSample{AckedBytes: 1448, RTT: obsRTT, DeliveryRate: 1.25e6, RoundStart: true, InFlight: inflight})
	}

	for _, rate := range []float64{0.4e6, 0.8e6, 1.25e6} {
		c.cc.OnAck(c, RateSample{AckedBytes: 1448, RTT: rtt, DeliveryRate: rate, RoundStart: true, InFlight: 100000})
	}
	for i := 0; i < 3; i++ {
		ack(rtt, 100000)
	}
	ack(rtt, 20000)
	if b.State() != "PROBE_BW" {
		t.Fatalf("setup failed to reach PROBE_BW (state %s)", b.State())
	}

	// 11 s with only higher RTT samples: the 10 s filter expires.
	advanceClock(c, sim.Time(11e9))
	ack(sim.Duration(25e6), 50000)
	if b.State() != "PROBE_RTT" {
		t.Fatalf("expired rtProp filter must enter PROBE_RTT, state %s", b.State())
	}
	if c.Cwnd != 4*mss {
		t.Fatalf("PROBE_RTT cwnd = %.0f, want exactly 4 MSS = %.0f", c.Cwnd, 4*mss)
	}
	priorCwnd := b.priorCwnd

	// Inflight reaches the floor: the 200 ms dwell starts; 300 ms later the
	// algorithm must be back in PROBE_BW with the prior window restored.
	ack(sim.Duration(25e6), 5000)
	if b.State() != "PROBE_RTT" {
		t.Fatalf("left PROBE_RTT before the 200 ms dwell elapsed (state %s)", b.State())
	}
	advanceClock(c, sim.Time(300e6))
	ack(sim.Duration(25e6), 5000)
	if b.State() != "PROBE_BW" {
		t.Fatalf("PROBE_RTT should return to PROBE_BW after its dwell, state %s", b.State())
	}
	if c.Cwnd < priorCwnd {
		t.Errorf("cwnd %.0f not restored to the pre-probe window %.0f", c.Cwnd, priorCwnd)
	}
}

// TestBICConvergesSlowlyNearLastMax drives BIC's binary search into its
// terminal phase: just below the last known maximum the per-RTT step is
// half the remaining distance, so the window creeps up without crossing
// far past lastMax; once beyond it, max probing accelerates.
func TestBICConvergesSlowlyNearLastMax(t *testing.T) {
	b := NewBIC()
	c := ccConn(b)
	mss := float64(packet.MSS)
	b.lastMax = 200
	c.Cwnd = 198 * mss
	c.Ssthresh = c.Cwnd
	window := func() float64 {
		start := c.Cwnd
		for n := int(c.Cwnd / mss); n > 0; n-- {
			c.cc.OnAck(c, RateSample{AckedBytes: int64(mss)})
		}
		return (c.Cwnd - start) / mss
	}

	if gain := window(); gain < 0.3 || gain > 1.5 {
		t.Fatalf("2 segs below lastMax the binary-search step should be ≈1 seg/RTT, got %.2f", gain)
	}
	for i := 0; i < 4; i++ {
		window()
	}
	if seg := c.Cwnd / mss; seg > b.lastMax+1.5 {
		t.Fatalf("binary search overshot lastMax: %.2f segs vs lastMax %.0f", seg, b.lastMax)
	}

	// Past the old maximum, max probing grows the step each RTT.
	c.Cwnd = 210 * mss
	g1 := window()
	g2 := window()
	if g2 <= g1 {
		t.Errorf("max probing should accelerate: %.2f then %.2f segs/RTT", g1, g2)
	}
}

// TestVegasGammaLeavesSlowStart checks the γ rule: when the per-round
// queue estimate exceeds γ during slow start, Vegas clamps the window to
// the queue-emptying target (cwnd·baseRTT/rtt + 1 MSS) and drops ssthresh
// so the flow lands in congestion avoidance.
func TestVegasGammaLeavesSlowStart(t *testing.T) {
	v := NewVegas()
	c := ccConn(v)
	mss := float64(packet.MSS)
	base := sim.Duration(20e6)
	obs := sim.Duration(30e6) // diff = 10·(10/30) ≈ 3.33 > γ = 1
	v.baseRTT = base
	v.beginSeq = 2
	c.cc.OnAck(c, RateSample{AckedBytes: int64(mss), RTT: obs, Delivered: 1})
	c.cc.OnAck(c, RateSample{AckedBytes: int64(mss), RTT: obs, Delivered: 2, InFlight: int64(mss)})

	wantCwnd := 10*float64(base)/float64(obs)*mss + mss
	if math.Abs(c.Cwnd-wantCwnd) > 1 {
		t.Errorf("γ clamp: cwnd %.1f, want target %.1f", c.Cwnd, wantCwnd)
	}
	if c.Ssthresh > c.Cwnd-mss+1 {
		t.Errorf("ssthresh %.1f must drop below cwnd %.1f so slow start ends", c.Ssthresh, c.Cwnd)
	}
}

// TestVegasLossFloors pins the loss-path floors: fast recovery keeps at
// least 2 MSS, an RTO restarts from exactly 1 MSS, and a round without
// enough RTT samples falls back to one MSS of Reno growth instead of
// freezing the window.
func TestVegasLossFloors(t *testing.T) {
	v := NewVegas()
	c := ccConn(v)
	mss := float64(packet.MSS)
	c.Cwnd = 3 * mss
	c.cc.OnEnterRecovery(c)
	if c.Cwnd != 2*mss || c.Ssthresh != 2*mss {
		t.Fatalf("loss at 3 MSS must floor at 2 MSS: cwnd %.0f ssthresh %.0f", c.Cwnd, c.Ssthresh)
	}
	c.cc.OnRTO(c)
	if c.Cwnd != mss {
		t.Fatalf("RTO must restart from 1 MSS, got %.0f", c.Cwnd)
	}

	// A round with a single RTT sample cannot run the estimator; the
	// documented fallback is +1 MSS so tiny windows never freeze.
	c2 := ccConn(NewVegas())
	c2.Ssthresh = c2.Cwnd - mss
	start := c2.Cwnd
	c2.cc.OnAck(c2, RateSample{AckedBytes: int64(mss), RTT: sim.Duration(20e6), Delivered: 1, InFlight: int64(mss)})
	if c2.Cwnd != start+mss {
		t.Fatalf("sample-starved round should add 1 MSS: %.0f -> %.0f", start, c2.Cwnd)
	}
}
