package experiments

import (
	"math"

	"cebinae/internal/core"
	"cebinae/internal/fluid"
	"cebinae/internal/netem"
	"cebinae/internal/packet"
	"cebinae/internal/sim"
)

// Fast-forward wiring: when a scenario requests fluid acceleration
// (Scenario.FastForward), Run builds a fluid.Controller over the dumbbell
// before the clock starts. The controller watches every device's transmit
// rate and queue occupancy plus every flow's goodput meter, treats drops,
// ECN marks, retransmissions, and Cebinae phase/config changes as
// discontinuities, and — once quiescence is proven — skips between pinned
// control-plane deadlines with closed-form counter advancement.
//
// Eligibility is deliberately narrow: only the bottleneck disciplines the
// fluid-vs-packet differentials cover (fifo, fq, cebinae) qualify;
// whatever they stamp, they stamp from the engine's Local clock, which a
// skip does not move. The strawman's token buckets stamp Now(), and the
// calendar baselines, which keep no time at all, have no differential. An
// ineligible request falls back to exact packet level and reports
// Result.FF.ForcedOff.

// fluidEligible reports whether the bottleneck discipline supports
// byte-consistent re-entry from a clock skip.
func fluidEligible(k QdiscKind) bool {
	switch k {
	case FIFO, FQ, Cebinae, "":
		return true
	}
	return false
}

// setupFastForward builds and starts the fluid controller for a
// scenario, or reports the request was forced off. Must run after the
// topology and the flows exist and before the engine runs; warmup is the
// edge Run will measure from.
func setupFastForward(s Scenario, w *netem.Network, bottleneck *netem.Device, fs *flowSet, warmup sim.Time) (*fluid.Controller, bool) {
	if !s.FastForward {
		return nil, false
	}
	if !fluidEligible(s.Qdisc) {
		return nil, true
	}
	eng := bottleneck.Node().Engine()
	// Resample: converged rates can still drift on timescales far above
	// the stability window (congestion windows growing between loss
	// episodes, BBR bandwidth shares wandering), which a frozen model
	// would extrapolate forever. Re-measuring at packet level once a
	// second caps the staleness of any frozen rate at one second while
	// still skipping ~95% of events on a quiescent run.
	c := fluid.New(eng, fluid.Config{Resample: Seconds(1)})

	// Every device is both a stability signal and a skip target: any
	// queue anywhere moving while armed is a discontinuity, and every
	// TX/RX counter keeps advancing across skipped time so monitors and
	// utilisation numbers stay truthful. The bottleneck is contested
	// when several flows share it: at full utilisation their shares are
	// contest-determined and flat rates may be a probing limit cycle's
	// cruise stretch, so the controller refuses to arm there — saturated
	// cells run at exact packet level. Access links stay plain watches:
	// a single flow pinned at its edge rate is a stationary allocation.
	for _, n := range w.Nodes() {
		for _, dev := range n.Devices() {
			if dev == bottleneck && len(fs.ends) > 1 {
				c.WatchDeviceContested(dev)
			} else {
				c.WatchDevice(dev)
			}
		}
	}

	// Per-flow goodput meters: the stability gate for fairness (shares,
	// not just the aggregate, must be steady) and the closed-form series
	// the post-run RateOver/Series reads. wireFactor converts goodput to
	// wire bytes for Cebinae's heavy-hitter cache and LBF banks — exact
	// under quiescence, where no delivered byte is a retransmission.
	//
	// The fluid hypothesis needs a provably unique stationary
	// allocation. With several flows, the proof is each flow's dedicated
	// access link: once a flow sustains ≈ its access rate (in goodput
	// terms, scaled by MSS/MTU, with 10% slack for pacing quantisation),
	// its share is pinned by topology and flat windows are trustworthy.
	// A multi-flow cell with no access limit offers no such proof — its
	// shares are contest-determined, momentarily flat inside probing
	// limit cycles far longer than the detection span — so an infinite
	// floor keeps the detector from ever arming there. A single flow
	// needs no proof: its allocation is unique whatever limits it.
	pinFloor := 0.0
	if len(fs.ends) > 1 {
		pinFloor = math.Inf(1)
		if s.AccessBps > 0 {
			pinFloor = 0.9 * s.AccessBps / 8 * float64(packet.MSS) / float64(packet.MSS+packet.HeaderBytes)
		}
	}
	for i, e := range fs.ends {
		m := fs.meters[i]
		if pinFloor > 0 {
			c.WatchFlowPinned(fs.keys[i], e.startAt, m.Total, m.Record, pinFloor)
		} else {
			c.WatchFlow(fs.keys[i], e.startAt, m.Total, m.Record)
		}
	}
	if cq, ok := bottleneck.Qdisc().(*core.Qdisc); ok {
		c.WatchCebinae(cq, float64(packet.MSS+packet.HeaderBytes)/float64(packet.MSS))
	}

	// Sender-side loss signals: a retransmission or timeout anywhere
	// resets quiescence detection (or disarms).
	for _, cn := range fs.conns {
		st := &cn.Stats
		c.WatchCounter(func() uint64 { return st.Retransmits + st.Timeouts })
	}

	// Measurement epochs must be exact, not straddled by a skip: pin a
	// no-op at every boundary the post-run metrics read — the warmup
	// edge and each late-starting flow's own measureFrom (one pin per
	// such flow, duplicates included: each pin is an event).
	pinBoundary(eng, warmup, s.Duration)
	for i, e := range fs.ends {
		if e.startAt > warmup {
			pinBoundary(eng, fs.measureFrom(i, warmup, s.Duration), s.Duration)
		}
	}
	// With time-series sampling on, a pinned metronome bounds every skip
	// to the sample grid so Series windows stay exact even on runs with
	// no stateSampler (non-Cebinae bottlenecks).
	if s.SampleInterval > 0 {
		m := &ffMetronome{eng: eng, interval: s.SampleInterval, horizon: s.Duration}
		eng.ArmPinnedTimer(&m.timer, s.SampleInterval, m, nil)
	}

	c.Start()
	return c, false
}

// pinBoundary arms a pinned no-op timer at t, making it a hard epoch
// boundary for skips. Out-of-range boundaries are dropped.
func pinBoundary(eng *sim.Engine, t, horizon sim.Time) {
	if t <= 0 || t > horizon {
		return
	}
	eng.ArmPinnedTimerAt(new(sim.Timer), t, sim.Func(func() {}), nil)
}

// ffMetronome is a pinned no-op tick aligning skips to the sample grid.
type ffMetronome struct {
	eng      *sim.Engine
	interval sim.Time
	horizon  sim.Time
	timer    sim.Timer
}

func (m *ffMetronome) OnEvent(any) {
	if m.eng.Now() >= m.horizon {
		return
	}
	m.eng.ArmPinnedTimer(&m.timer, m.interval, m, nil)
}
