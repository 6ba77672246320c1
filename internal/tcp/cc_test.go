package tcp

import (
	"testing"

	"cebinae/internal/sim"
)

// ccConn builds a detached Conn suitable for driving CC hooks directly
// (no network attached — only the fields CC modules touch are exercised).
func ccConn(cc CongestionControl) *Conn {
	c := &Conn{
		eng: sim.NewEngine(),
		cc:  cc,
	}
	c.Cwnd = 10 * 1448
	c.Ssthresh = 1 << 40
	cc.Init(c)
	return c
}

func TestRegistry(t *testing.T) {
	for _, name := range []string{"newreno", "cubic", "bic", "vegas", "bbr"} {
		cc, ok := NewCC(name)
		if !ok || cc.Name() != name {
			t.Fatalf("registry broken for %q", name)
		}
	}
	if _, ok := NewCC("nope"); ok {
		t.Fatal("unknown CCA must not resolve")
	}
	if len(CCNames()) != 5 {
		t.Fatalf("expected 5 registered CCAs, got %d", len(CCNames()))
	}
}

func TestNewRenoSlowStartDoubles(t *testing.T) {
	c := ccConn(NewNewReno())
	start := c.Cwnd
	// One window's worth of ACKs in slow start ⇒ window doubles.
	for i := 0; i < 10; i++ {
		c.cc.OnAck(c, RateSample{AckedBytes: 1448})
	}
	if c.Cwnd != 2*start {
		t.Fatalf("slow start should double: %v -> %v", start, c.Cwnd)
	}
}

func TestNewRenoCongestionAvoidanceLinear(t *testing.T) {
	c := ccConn(NewNewReno())
	c.Ssthresh = c.Cwnd // enter CA
	start := c.Cwnd
	// A full window of ACKs adds ≈ 1 MSS.
	for i := 0; i < 10; i++ {
		c.cc.OnAck(c, RateSample{AckedBytes: 1448})
	}
	gain := c.Cwnd - start
	if gain < 1300 || gain > 1600 {
		t.Fatalf("CA should add ≈1 MSS per RTT, added %v", gain)
	}
}

func TestNewRenoHalvesOnLoss(t *testing.T) {
	c := ccConn(NewNewReno())
	c.Cwnd = 100 * 1448
	c.cc.OnEnterRecovery(c)
	if c.Ssthresh != 50*1448 || c.Cwnd != 50*1448 {
		t.Fatalf("halving wrong: cwnd=%v ssthresh=%v", c.Cwnd, c.Ssthresh)
	}
	c.cc.OnRTO(c)
	if c.Cwnd != 1448 {
		t.Fatalf("RTO should collapse to 1 MSS, got %v", c.Cwnd)
	}
}

func TestNewRenoFloor(t *testing.T) {
	c := ccConn(NewNewReno())
	c.Cwnd = 2 * 1448
	c.cc.OnEnterRecovery(c)
	if c.Cwnd < 2*1448 {
		t.Fatalf("window must not fall below 2 MSS: %v", c.Cwnd)
	}
}

func TestCubicBetaReduction(t *testing.T) {
	c := ccConn(NewCubic())
	c.Cwnd = 100 * 1448
	c.cc.OnEnterRecovery(c)
	want := 0.7 * 100 * 1448
	if c.Cwnd < want*0.99 || c.Cwnd > want*1.01 {
		t.Fatalf("cubic β reduction wrong: %v, want %v", c.Cwnd, want)
	}
}

func TestCubicGrowsTowardWmax(t *testing.T) {
	cu := NewCubic()
	c := ccConn(cu)
	eng := c.eng
	c.Cwnd = 100 * 1448
	c.cc.OnEnterRecovery(c) // records wMax = 100 segs, cwnd → 70
	c.Ssthresh = c.Cwnd
	c.srtt = sim.Duration(20e6)
	// Drive ACKs over simulated time; the window must rise back toward the
	// recorded maximum (concave region).
	for step := 0; step < 200; step++ {
		eng.ScheduleCall(sim.Duration(10e6), sim.Func(func() {
			for i := 0; i < 20; i++ {
				c.cc.OnAck(c, RateSample{AckedBytes: 1448})
			}
		}), nil)
		eng.RunAll()
	}
	if c.Cwnd < 90*1448 {
		t.Fatalf("cubic should recover toward W_max: %v segs", c.Cwnd/1448)
	}
}

func TestCubicFastConvergenceShrinksWmax(t *testing.T) {
	cu := NewCubic()
	c := ccConn(cu)
	c.Cwnd = 100 * 1448
	c.cc.OnEnterRecovery(c)
	firstWmax := cu.wMax
	// Loss again at a *lower* window: fast convergence shrinks the anchor.
	c.cc.OnEnterRecovery(c)
	if cu.wMax >= firstWmax {
		t.Fatalf("fast convergence should shrink wMax: %v -> %v", firstWmax, cu.wMax)
	}
}

func TestBICBinarySearchStep(t *testing.T) {
	b := NewBIC()
	c := ccConn(b)
	c.Cwnd = 30 * 1448 // above LowWindow so binary increase engages
	c.Ssthresh = c.Cwnd
	b.lastMax = 200 // segments; far above the current 30-seg window
	start := c.Cwnd
	// One full window of ACKs ⇒ one RTT's step.
	for i := 0; i < 30; i++ {
		c.cc.OnAck(c, RateSample{AckedBytes: 1448})
	}
	// Step = min((200−30)/2, SMax=32) = 32 segs/RTT.
	gain := (c.Cwnd - start) / 1448
	if gain < 22 || gain > 42 {
		t.Fatalf("BIC far-from-max step ≈ SMax segs/RTT, got %v", gain)
	}
}

func TestBICReduction(t *testing.T) {
	b := NewBIC()
	c := ccConn(b)
	c.Cwnd = 100 * 1448
	c.cc.OnEnterRecovery(c)
	want := 0.8 * 100 * 1448
	if c.Cwnd < want*0.99 || c.Cwnd > want*1.01 {
		t.Fatalf("BIC β=0.8 reduction wrong: %v", c.Cwnd)
	}
	if b.lastMax != 100 {
		t.Fatalf("lastMax should record the pre-loss window: %v", b.lastMax)
	}
}

func TestVegasHoldsInBand(t *testing.T) {
	v := NewVegas()
	c := ccConn(v)
	c.Ssthresh = c.Cwnd - 1448 // congestion avoidance
	// Round with diff between alpha and beta: base 20 ms, observed such
	// that diff = cwnd(rtt−base)/rtt = 3 segments (cwnd = 10).
	// 10(rtt−20)/rtt = 3 → rtt = 200/7 ≈ 28.57 ms.
	base := sim.Duration(20e6)
	obs := sim.Time(float64(base) * 10 / 7)
	v.baseRTT = base
	v.beginSeq = 2 // round completes on the second sample
	start := c.Cwnd
	c.cc.OnAck(c, RateSample{AckedBytes: 1448, RTT: obs, Delivered: 1})
	c.cc.OnAck(c, RateSample{AckedBytes: 1448, RTT: obs, Delivered: 2, InFlight: 1448})
	if c.Cwnd != start {
		t.Fatalf("vegas must hold within [α, β]: %v -> %v", start, c.Cwnd)
	}
}

func TestVegasIncreasesWhenUnderfilled(t *testing.T) {
	v := NewVegas()
	c := ccConn(v)
	c.Ssthresh = c.Cwnd - 1448
	base := sim.Duration(20e6)
	v.baseRTT = base
	v.beginSeq = 2
	start := c.Cwnd
	c.cc.OnAck(c, RateSample{AckedBytes: 1448, RTT: base, Delivered: 1})
	c.cc.OnAck(c, RateSample{AckedBytes: 1448, RTT: base, Delivered: 2, InFlight: 1448})
	if c.Cwnd != start+1448 {
		t.Fatalf("vegas should add one MSS when diff < α: %v -> %v", start, c.Cwnd)
	}
}

func TestVegasDecreasesWhenOverfilled(t *testing.T) {
	v := NewVegas()
	c := ccConn(v)
	c.Cwnd = 20 * 1448
	c.Ssthresh = c.Cwnd - 1448
	base := sim.Duration(20e6)
	obs := sim.Duration(28e6) // diff = 20×8/28 ≈ 5.7 > β
	v.baseRTT = base
	v.beginSeq = 2
	start := c.Cwnd
	c.cc.OnAck(c, RateSample{AckedBytes: 1448, RTT: obs, Delivered: 1})
	c.cc.OnAck(c, RateSample{AckedBytes: 1448, RTT: obs, Delivered: 2, InFlight: 1448})
	if c.Cwnd != start-1448 {
		t.Fatalf("vegas should back off one MSS when diff > β: %v -> %v", start, c.Cwnd)
	}
}

func TestBBRStartupToProbeBW(t *testing.T) {
	b := NewBBR()
	c := ccConn(b)
	if b.State() != "STARTUP" {
		t.Fatalf("initial state %s", b.State())
	}
	// Feed rounds with a plateaued bandwidth estimate: full-pipe detection
	// should fire after 3 flat rounds and drain to PROBE_BW.
	rate := 10e6 / 8.0 // 10 Mbps in bytes/sec
	for round := 0; round < 10; round++ {
		c.cc.OnAck(c, RateSample{
			AckedBytes:   1448,
			RTT:          sim.Duration(20e6),
			DeliveryRate: rate,
			RoundStart:   true,
			InFlight:     0,
			Delivered:    int64(round * 14480),
		})
	}
	if b.State() != "PROBE_BW" {
		t.Fatalf("plateaued BBR should reach PROBE_BW, in %s", b.State())
	}
	if got := b.BtlBw(); got < rate*0.99 || got > rate*1.01 {
		t.Fatalf("btlBw estimate %v, want ≈%v", got, rate)
	}
}

func TestBBRCwndTracksBDP(t *testing.T) {
	b := NewBBR()
	c := ccConn(b)
	rate := 10e6 / 8.0
	rtt := sim.Duration(20e6)
	for round := 0; round < 30; round++ {
		c.cc.OnAck(c, RateSample{AckedBytes: 14480, RTT: rtt, DeliveryRate: rate, RoundStart: true})
	}
	bdp := rate * rtt.Seconds()
	if c.Cwnd < 1.5*bdp || c.Cwnd > 3*bdp {
		t.Fatalf("BBR cwnd should sit near 2×BDP (%v), got %v", 2*bdp, c.Cwnd)
	}
}

func TestBBRAppLimitedSamplesDontRaiseEstimate(t *testing.T) {
	b := NewBBR()
	c := ccConn(b)
	c.cc.OnAck(c, RateSample{AckedBytes: 1448, RTT: sim.Duration(20e6), DeliveryRate: 1000, RoundStart: true})
	before := b.BtlBw()
	// An app-limited sample *below* the estimate must be ignored.
	c.cc.OnAck(c, RateSample{AckedBytes: 1448, RTT: sim.Duration(20e6), DeliveryRate: 500, IsAppLimited: true, RoundStart: true})
	if b.BtlBw() < before {
		t.Fatalf("app-limited sample lowered the filter: %v -> %v", before, b.BtlBw())
	}
}

func TestBBRIgnoresLoss(t *testing.T) {
	b := NewBBR()
	c := ccConn(b)
	rate := 10e6 / 8.0
	for round := 0; round < 10; round++ {
		c.cc.OnAck(c, RateSample{AckedBytes: 14480, RTT: sim.Duration(20e6), DeliveryRate: rate, RoundStart: true})
	}
	bw := b.BtlBw()
	c.cc.OnEnterRecovery(c)
	c.cc.OnExitRecovery(c)
	if b.BtlBw() != bw {
		t.Fatal("BBRv1's bandwidth model must survive loss events")
	}
}

func TestMaxFilterWindowEviction(t *testing.T) {
	var f maxFilter
	f.update(1, 100, 10)
	f.update(2, 50, 10)
	if f.max() != 100 {
		t.Fatalf("max wrong: %v", f.max())
	}
	// Far future round: the old max must age out.
	f.update(20, 50, 10)
	if f.max() != 50 {
		t.Fatalf("expired sample survived: %v", f.max())
	}
}
