package tcp

import (
	"testing"

	"cebinae/internal/sim"
)

func TestScalableMIMDGrowth(t *testing.T) {
	s := NewScalable()
	c := ccConn(s)
	c.Cwnd = 100 * 1448 // well above the legacy window
	c.Ssthresh = c.Cwnd
	start := c.Cwnd
	// One window of ACKs: MIMD adds a·window = 1% of the window per RTT.
	for i := 0; i < 100; i++ {
		c.cc.OnAck(c, RateSample{AckedBytes: 1448})
	}
	gain := (c.Cwnd - start) / start
	if gain < 0.009 || gain > 0.011 {
		t.Fatalf("Scalable should grow 1%%/RTT, grew %.4f", gain)
	}
}

func TestScalableLegacyRegionIsReno(t *testing.T) {
	s := NewScalable()
	c := ccConn(s) // 10 segments < LegacyWindow
	c.Ssthresh = c.Cwnd
	start := c.Cwnd
	for i := 0; i < 10; i++ {
		c.cc.OnAck(c, RateSample{AckedBytes: 1448})
	}
	gain := c.Cwnd - start
	if gain < 1300 || gain > 1600 {
		t.Fatalf("legacy region should grow ≈1 MSS/RTT, grew %v", gain)
	}
}

func TestScalableShallowBackoff(t *testing.T) {
	s := NewScalable()
	c := ccConn(s)
	c.Cwnd = 100 * 1448
	c.cc.OnEnterRecovery(c)
	want := 0.875 * 100 * 1448
	if c.Cwnd < want*0.99 || c.Cwnd > want*1.01 {
		t.Fatalf("Scalable backoff should be 12.5%%: %v", c.Cwnd)
	}
}

func TestHTCPLowSpeedRegime(t *testing.T) {
	h := NewHTCP()
	c := ccConn(h)
	c.Ssthresh = c.Cwnd
	// Immediately after a loss (elapsed < Δ_L) the step is Reno-like.
	h.lastLossAt = c.eng.Now()
	start := c.Cwnd
	for i := 0; i < 10; i++ {
		c.cc.OnAck(c, RateSample{AckedBytes: 1448})
	}
	gain := (c.Cwnd - start) / 1448
	if gain > 2.5 {
		t.Fatalf("H-TCP within Δ_L should stay near 1 seg/RTT, grew %.2f", gain)
	}
}

func TestHTCPAcceleratesWithTime(t *testing.T) {
	h := NewHTCP()
	c := ccConn(h)
	c.Ssthresh = c.Cwnd
	h.lastLossAt = 0
	// Advance the virtual clock 5 s past the loss: α(Δ) grows quadratically.
	c.eng.ScheduleCall(sim.Duration(5e9), sim.Func(func() {}), nil)
	c.eng.RunAll()
	alphaLate := h.alphaNow(c.eng.Now())
	if alphaLate < 30 {
		t.Fatalf("H-TCP α should be large 5 s after loss: %.1f", alphaLate)
	}
	if early := h.alphaNow(sim.Duration(500e6)); early != 1 {
		t.Fatalf("α within Δ_L must be 1, got %v", early)
	}
}

func TestHTCPAdaptiveBeta(t *testing.T) {
	h := NewHTCP()
	c := ccConn(h)
	c.Cwnd = 100 * 1448
	// Small RTT spread ⇒ β near min/max ratio, clamped to [0.5, 0.8].
	h.minRTT = sim.Duration(20e6)
	h.maxRTT = sim.Duration(22e6)
	c.cc.OnEnterRecovery(c)
	if h.beta != 0.8 {
		t.Fatalf("tight RTT spread should clamp β to 0.8, got %v", h.beta)
	}
	c.Cwnd = 100 * 1448
	h.minRTT = sim.Duration(20e6)
	h.maxRTT = sim.Duration(100e6)
	c.cc.OnEnterRecovery(c)
	if h.beta != 0.5 {
		t.Fatalf("wide RTT spread should clamp β to 0.5, got %v", h.beta)
	}
}

func TestIllinoisAlphaRespondsToDelay(t *testing.T) {
	il := NewIllinois()
	c := ccConn(il)
	c.Ssthresh = c.Cwnd - 1448
	base := sim.Duration(20e6)

	feedRound := func(rtt sim.Time) {
		il.roundAt = 0
		c.cc.OnAck(c, RateSample{AckedBytes: 1448, RTT: rtt, Delivered: 1, InFlight: 1448})
	}
	// Establish the delay profile: base 20 ms, max 60 ms.
	il.baseRTT = base
	il.maxRTT = sim.Duration(60e6)
	// Low delay round ⇒ α at maximum.
	feedRound(base + sim.Duration(1e6))
	if il.alpha < il.AlphaMax*0.9 {
		t.Fatalf("low delay should give α≈αmax, got %v", il.alpha)
	}
	// High delay round ⇒ α near minimum, β near maximum.
	feedRound(sim.Duration(58e6))
	if il.alpha > 1 {
		t.Fatalf("high delay should shrink α, got %v", il.alpha)
	}
	if il.beta < 0.4 {
		t.Fatalf("high delay should raise β, got %v", il.beta)
	}
}

func TestIllinoisBackoffUsesBeta(t *testing.T) {
	il := NewIllinois()
	c := ccConn(il)
	c.Cwnd = 100 * 1448
	il.beta = 0.125
	c.cc.OnEnterRecovery(c)
	want := 0.875 * 100 * 1448
	if c.Cwnd < want*0.99 || c.Cwnd > want*1.01 {
		t.Fatalf("Illinois low-delay backoff should be 12.5%%: %v", c.Cwnd)
	}
}

func TestDCTCPProportionalReduction(t *testing.T) {
	d := NewDCTCP()
	c := ccConn(d)
	c.Ssthresh = c.Cwnd
	// Half the window's ACKs marked ⇒ F = 0.5; with α₀ = 1, α stays high
	// and the reduction is ≈ α/2 when the window closes.
	start := c.Cwnd
	for i := 0; i < 5; i++ {
		d.OnAck(c, RateSample{AckedBytes: 1448, Delivered: int64(i) * 1448, InFlight: 1 << 20})
	}
	for i := 5; i < 10; i++ {
		d.OnECE(c, RateSample{AckedBytes: 1448, Delivered: int64(i) * 1448, InFlight: 1 << 20})
	}
	// Close the window (Delivered passes windowEnd = 0 + ... first call set
	// windowEnd; force a final closing sample).
	d.OnECE(c, RateSample{AckedBytes: 1448, Delivered: 1 << 30, InFlight: 0})
	if c.Cwnd >= start {
		t.Fatalf("DCTCP must reduce on a marked window: %v -> %v", start, c.Cwnd)
	}
	if c.Cwnd < start*0.4 {
		t.Fatalf("DCTCP reduction should be proportional (≤α/2), not a collapse: %v -> %v", start, c.Cwnd)
	}
}

func TestDCTCPKeepsLossResponse(t *testing.T) {
	d := NewDCTCP()
	c := ccConn(d)
	c.Cwnd = 100 * 1448
	c.cc.OnEnterRecovery(c)
	if c.Cwnd != 50*1448 {
		t.Fatalf("DCTCP must still halve on loss: %v", c.Cwnd)
	}
}
