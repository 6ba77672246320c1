package fluid

import (
	"testing"

	"cebinae/internal/app"
	"cebinae/internal/netem"
	"cebinae/internal/packet"
	"cebinae/internal/qdisc"
	"cebinae/internal/sim"
)

type sink struct{}

func (sink) Deliver(p *packet.Packet) {}

// buildCBRLink wires a one-way 20 Mbps CBR flow over a 50 Mbps FIFO link
// — the canonical quiescent workload: constant rate, near-empty queue.
func buildCBRLink() (*sim.Engine, *netem.Device) {
	return buildCBRLinkAt(20e6)
}

// buildCBRLinkAt is buildCBRLink at an arbitrary offered rate.
func buildCBRLinkAt(rateBps float64) (*sim.Engine, *netem.Device) {
	eng := sim.NewEngine()
	w := netem.NewNetwork(eng)
	a, b := w.NewNode("a"), w.NewNode("b")
	ab, ba := w.Connect(a, b, netem.LinkConfig{RateBps: 50e6, Delay: sim.Duration(1e6)})
	ab.SetQdisc(qdisc.NewFIFO(128 * 1500))
	ba.SetQdisc(qdisc.NewFIFO(1 << 20))
	a.AddRoute(b.ID, ab)
	b.AddRoute(a.ID, ba)
	key := packet.FlowKey{Src: a.ID, Dst: b.ID, SrcPort: 1, DstPort: 2, Proto: packet.ProtoUDP}
	b.Register(key, sink{})
	app.NewCBR(eng, a, key, rateBps, 0)
	return eng, ab
}

const horizon = sim.Time(2e9) // 2 s

func TestFastForwardSkipsAndFidelity(t *testing.T) {
	// Exact packet-level baseline.
	engExact, devExact := buildCBRLink()
	engExact.Run(horizon)
	exactTx := devExact.Stats().TxBytes
	exactEvents := engExact.Processed
	if exactTx == 0 {
		t.Fatal("baseline moved no bytes")
	}

	// Fluid run over the same scenario.
	eng, dev := buildCBRLink()
	c := New(eng, Config{})
	c.WatchDevice(dev)
	c.Start()
	eng.Run(horizon)

	st := c.Stats()
	if st.Arms == 0 || st.Skips == 0 {
		t.Fatalf("controller never armed/skipped: %+v", st)
	}
	if st.SkippedTime < horizon/2 {
		t.Fatalf("expected most of the run skipped, got %v of %v", st.SkippedTime, horizon)
	}
	if eng.Now() != horizon {
		t.Fatalf("clock did not reach horizon: %v", eng.Now())
	}
	if eng.Processed >= exactEvents {
		t.Fatalf("fluid run dispatched %d events, baseline %d — no work saved",
			eng.Processed, exactEvents)
	}
	ffTx := dev.Stats().TxBytes
	diff := float64(ffTx) - float64(exactTx)
	if diff < 0 {
		diff = -diff
	}
	if diff/float64(exactTx) > 0.01 {
		t.Fatalf("TxBytes error > 1%%: fluid=%d exact=%d", ffTx, exactTx)
	}
}

func TestFastForwardDeterministic(t *testing.T) {
	run := func() (uint64, Stats) {
		eng, dev := buildCBRLink()
		c := New(eng, Config{})
		c.WatchDevice(dev)
		c.Start()
		eng.Run(horizon)
		return dev.Stats().TxBytes, c.Stats()
	}
	tx1, st1 := run()
	tx2, st2 := run()
	if tx1 != tx2 || st1 != st2 {
		t.Fatalf("fluid runs diverged: tx %d vs %d, stats %+v vs %+v", tx1, tx2, st1, st2)
	}
}

func TestDiscontinuityDisarms(t *testing.T) {
	eng, dev := buildCBRLink()
	c := New(eng, Config{})
	c.WatchDevice(dev)
	var bumps uint64
	c.WatchCounter(func() uint64 { return bumps })
	// A pinned event mid-run models a control-plane discontinuity: the
	// skip chain must stop exactly at it, and the counter delta must
	// force a fall back to packet-level sampling.
	eng.ArmPinnedTimerAt(new(sim.Timer), sim.Duration(900e6), sim.Func(func() { bumps++ }), nil)
	c.Start()
	eng.Run(horizon)

	st := c.Stats()
	if st.Disarms == 0 {
		t.Fatalf("discontinuity did not disarm: %+v", st)
	}
	if st.Arms < 2 {
		t.Fatalf("controller should re-arm after quiescence is re-proven: %+v", st)
	}
}

func TestForceOff(t *testing.T) {
	eng, dev := buildCBRLink()
	c := New(eng, Config{})
	c.WatchDevice(dev)
	eng.ArmPinnedTimerAt(new(sim.Timer), sim.Duration(500e6), sim.Func(c.ForceOff), nil)
	c.Start()
	eng.Run(horizon)

	st := c.Stats()
	if !st.ForcedOff {
		t.Fatal("ForcedOff not recorded")
	}
	if c.Armed() {
		t.Fatal("still armed after ForceOff")
	}
	if st.SkippedTime > sim.Duration(500e6) {
		t.Fatalf("skipped past the ForceOff point: %v", st.SkippedTime)
	}
	// The run continues at packet level after ForceOff, so the second
	// half still moves real bytes.
	if dev.Stats().TxBytes < uint64(20e6/8) { // ≥1 s worth at 20 Mbps
		t.Fatalf("too few bytes after forced fall-back: %d", dev.Stats().TxBytes)
	}
}

// TestContestedSaturationGuard: a link marked contested must refuse to
// arm while carrying ≥ utilCap of its capacity — even under a perfectly
// stable load — because at capacity the shares are contest-determined
// and momentary stability can be a probing limit cycle's cruise phase.
// The same load on an uncontested watch arms, proving the guard (not
// the workload) is what blocked it.
func TestContestedSaturationGuard(t *testing.T) {
	run := func(contested bool) Stats {
		eng, dev := buildCBRLinkAt(48.5e6) // 97% of the 50 Mbps line
		c := New(eng, Config{})
		if contested {
			c.WatchDeviceContested(dev)
		} else {
			c.WatchDevice(dev)
		}
		c.Start()
		eng.Run(horizon)
		return c.Stats()
	}
	if st := run(true); st.Arms != 0 || st.Skips != 0 {
		t.Fatalf("contested link at 97%% utilisation armed: %+v", st)
	}
	if st := run(false); st.Arms == 0 {
		t.Fatalf("uncontested control never armed — guard test proves nothing: %+v", st)
	}
}

func TestWatchFlowStability(t *testing.T) {
	eng, dev := buildCBRLink()
	c := New(eng, Config{})
	c.WatchDevice(dev)
	var credited int64
	c.WatchFlow(packet.FlowKey{}, 0, func() int64 { return int64(dev.Stats().TxBytes) },
		func(at sim.Time, bytes int64) { credited += bytes })
	c.Start()
	eng.Run(horizon)

	st := c.Stats()
	if st.Skips == 0 {
		t.Fatalf("flow watch prevented arming: %+v", st)
	}
	if credited == 0 {
		t.Fatal("record never received fluid credit")
	}
	// The credit must equal the frozen rate × skipped time to within
	// per-skip rounding (the remainder carry loses < 1 byte overall).
	perSec := float64(credited) / st.SkippedTime.Seconds()
	if perSec < 20e6/8*0.99 || perSec > 20e6/8*1.01 {
		t.Fatalf("fluid credit rate %.0f B/s, want ≈ %.0f", perSec, 20e6/8)
	}
}
