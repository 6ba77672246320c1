// Package fluid implements the hybrid fluid/packet fast-forward layer: a
// per-link fluid approximation the engine switches to when flow rates are
// provably quiescent, with automatic fallback to packet level on any
// discontinuity.
//
// The mechanism is freeze-and-shift. A Controller samples per-device
// transmit rates, per-flow goodput rates, and queue occupancies on a
// pinned periodic tick. Once every watched signal has been stable for K
// consecutive windows and no discontinuity counter (drops, CE marks,
// phase changes, retransmissions) has moved, the controller arms: it
// freezes the measured rates and starts skipping. Each skip jumps the
// clock to the next pinned control-plane deadline (Cebinae rotation or
// configure window, a monitor sample, a flow start, the measurement
// epoch, …), capped by maxSkip and the run horizon, using
// sim.Engine.FastForward — every non-pinned pending event (in-flight
// transmissions, RTOs, pacing, delayed ACKs) shifts with the clock, and
// every stamp the frozen components hold was read from the engine's
// Local() clock, which does not tick during a skip — so the frozen
// packet-level state re-enters the far side of the skip byte-consistently
// without the controller touching it. Across the skipped stretch the
// controller advances the observable counters in closed form: device
// TX/RX stats, per-flow goodput meters, and — for a Cebinae port — the
// heavy-hitter cache, port byte counter, and LBF banks the next recompute
// will poll (core.Qdisc.FluidAdvance).
//
// Fallback is automatic and conservative. Pinned events execute at packet
// level at their exact instants (a rotation is a mandatory
// discontinuity: it is never skipped across). After each hop the
// controller re-checks: if any discontinuity counter moved, or any frozen
// queue's occupancy changed (the signature of a pinned traffic event —
// a flow arrival, an ON/OFF transition — injecting packets), it disarms
// on the spot, having skipped zero time past the perturbation, and
// resumes packet-level sampling until quiescence is re-proven.
package fluid

import (
	"cebinae/internal/core"
	"cebinae/internal/netem"
	"cebinae/internal/packet"
	"cebinae/internal/sim"
)

// The quiescence detector's and the skip policy's constants.
const (
	// sampleWindow is the sampling window W: rates and occupancies are
	// observed once per window.
	sampleWindow = sim.Time(10e6) // 10 ms
	// stableWindows is K, the consecutive stable windows required to arm.
	stableWindows = 5
	// rateTol is the relative stability band on per-window byte deltas: a
	// signal is stable when max-min across the K windows is within
	// max(rateTol·mean, absTol).
	rateTol = 0.01
	// absTol is the absolute band floor in bytes per window, two
	// full-size packets of per-window quantisation.
	absTol = 3000
	// queueTol is the absolute occupancy band in bytes, six full-size
	// packets: queue depth may breathe by this much across the K windows
	// and still count as quiescent.
	queueTol = 9000
	// maxSkip caps one hop, bounding how stale the closed-form counters
	// can get between pinned deadlines.
	maxSkip = sim.Time(250e6) // 250 ms
	// utilCap is the utilisation fraction at which a contested link
	// (WatchDeviceContested) blocks arming. At capacity, the flows' shares
	// are contest-determined: rates flat across K windows may be the
	// cruise phase of a probing limit cycle (BBR gain cycling, AIMD
	// plateaus between losses) whose period exceeds the detection span,
	// and freezing such a share extrapolates a transient. Below the cap
	// the allocation is pinned by upstream limits and momentary stability
	// is trustworthy.
	utilCap = 0.95
)

// Config tunes the skip policy.
type Config struct {
	// Resample, when positive, forces a disarm after that much
	// cumulative skipped time, so rates are re-measured at packet level
	// even on a run with no discontinuities (default 0: no forced
	// resample — a frozen equilibrium cannot drift on its own).
	Resample sim.Time
}

// Stats summarises a controller's activity for reports and the
// error-bound discussion: SkippedTime/Skips give the speedup side;
// Arms/Disarms tell how often quiescence was proven and lost.
type Stats struct {
	// Windows counts packet-level sampling windows observed.
	Windows uint64
	// Arms counts transitions into fluid mode; Disarms counts falls back
	// to packet level (forced or discontinuity-triggered).
	Arms    uint64
	Disarms uint64
	// Skips counts executed hops; SkippedTime is their total span.
	Skips       uint64
	SkippedTime sim.Time
	// ForcedOff reports a permanent ForceOff.
	ForcedOff bool
}

// history is a fixed ring of the last K per-window observations of one
// counter signal.
type history struct {
	vals  []int64
	n     int // filled entries
	next  int // ring cursor
	total int64
}

func (h *history) reset() { h.n, h.next, h.total = 0, 0, 0 }

func (h *history) push(v int64) {
	if h.n == len(h.vals) {
		h.total -= h.vals[h.next]
	} else {
		h.n++
	}
	h.vals[h.next] = v
	h.total += v
	h.next = (h.next + 1) % len(h.vals)
}

func (h *history) full() bool { return h.n == len(h.vals) }

// stable reports whether the ring is full and max-min fits the band
// max(rateTol·mean, absTol).
func (h *history) stable() bool {
	if !h.full() {
		return false
	}
	lo, hi := h.vals[0], h.vals[0]
	for _, v := range h.vals[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	band := max(int64(rateTol*float64(h.total)/float64(h.n)), absTol)
	return hi-lo <= band
}

// mean returns the average per-window value.
func (h *history) mean() float64 { return float64(h.total) / float64(h.n) }

// spread returns max-min across the ring (only meaningful when full).
func (h *history) spread() int64 {
	lo, hi := h.vals[0], h.vals[0]
	for _, v := range h.vals[1:h.n] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return hi - lo
}

// watchedDevice tracks one netem device: its TX byte rate is a stability
// signal, and all four stats counters are fluid-advanced during skips.
type watchedDevice struct {
	dev *netem.Device

	// contested marks a link shared by multiple watched flows: running
	// at ≥ utilCap of capacity vetoes arming (see utilCap).
	contested bool

	// Per-window delta rings over the last K windows; txB gates
	// stability, the companions exist so arm-time rates come from the
	// same stable span (not from transient windows before it).
	histTxB, histTxP, histRxB, histRxP history
	// last* are the counter values at the previous sampling tick.
	lastTxB, lastTxP, lastRxB, lastRxP uint64

	// occAtArm freezes the qdisc occupancy when arming; any change while
	// armed is a discontinuity (a pinned traffic event moved packets).
	occAtArm int
	// occHist holds the last K occupancy samples; a transiently deep
	// queue ages out of the band after K quiet windows.
	occHist history

	// rate* are the frozen per-second rates while armed; rem* carry the
	// fractional remainders of closed-form advancement so long runs of
	// skips lose no bytes to rounding.
	rateTxB, rateTxP, rateRxB, rateRxP float64
	remTxB, remTxP, remRxB, remRxP     float64
}

// watchedFlow tracks one flow's cumulative byte counter (typically a
// metrics.FlowMeter total): a stability signal, advanced through record
// during skips so rate series and goodput windows stay exact at every
// pinned epoch.
type watchedFlow struct {
	// Key identifies the flow for the Cebinae heavy-hitter feed; zero
	// when the flow is not tied to a Cebinae port.
	key    packet.FlowKey
	total  func() int64
	record func(t sim.Time, bytes int64)
	// activeFrom is the flow's start instant: once it has passed, the
	// flow must show positive throughput for the network to arm — a
	// started flow moving no bytes is a stall (every sender parked in
	// RTO after a synchronised loss burst), not quiescence, and freezing
	// it would skip the entire recovery.
	activeFrom sim.Time
	// pinFloor, when positive, is the goodput rate (bytes/second) this
	// flow must sustain for the network to count as quiescent: the rate
	// its topology provably pins it at (a dedicated access link). Below
	// the floor the flow is in a transient — ramping, draining, probing
	// — whose momentary flatness must not arm the fluid model. +Inf
	// marks a flow with no pinning evidence at all: permanently
	// unprovable, so the controller never arms.
	pinFloor float64

	hist history
	last int64
	rate float64 // frozen bytes/second while armed
	rem  float64
}

// Controller is the per-engine fluid fast-forward state machine. Not
// safe for concurrent use (single-goroutine, like the engine).
type Controller struct {
	eng *sim.Engine
	cfg Config

	devices []*watchedDevice
	flows   []*watchedFlow

	// ceb, when non-nil, receives closed-form egress accounting during
	// skips; cebWire converts flow goodput rates to wire rates.
	ceb     *core.Qdisc
	cebWire float64

	// discos are discontinuity counters (drops, CE marks, retransmits,
	// phase/config changes…): any delta resets detection or disarms.
	discos    []func() uint64
	discoLast []uint64

	tick      sim.Timer
	armed     bool
	armedSpan sim.Time // cumulative skipped time since the last arm
	off       bool
	started   bool

	stats Stats
}

// New returns a controller bound to eng. Wire up watches, then call Start.
func New(eng *sim.Engine, cfg Config) *Controller {
	c := &Controller{eng: eng, cfg: cfg}
	return c
}

// WatchDevice adds dev as a stability signal and advancement target, and
// registers its drop counter as a discontinuity.
func (c *Controller) WatchDevice(dev *netem.Device) {
	wd := &watchedDevice{dev: dev}
	for _, h := range []*history{&wd.histTxB, &wd.histTxP, &wd.histRxB, &wd.histRxP, &wd.occHist} {
		h.vals = make([]int64, stableWindows)
	}
	c.devices = append(c.devices, wd)
	c.WatchCounter(func() uint64 { return dev.Stats().DropPackets })
}

// WatchDeviceContested is WatchDevice for a link that multiple watched
// flows contend for (a dumbbell bottleneck): on top of the stability
// band, the link may not arm while carrying ≥ utilCap of its capacity.
// A contested link at capacity has contest-determined shares — flat
// rates across the K-window span can be the cruise stretch of a probing
// limit cycle longer than the span, which is exactly the state a frozen
// fluid model would distort. Single-flow edges legitimately running at
// their line rate (access-limited cells) stay plain WatchDevice.
func (c *Controller) WatchDeviceContested(dev *netem.Device) {
	c.WatchDevice(dev)
	c.devices[len(c.devices)-1].contested = true
}

// WatchFlow adds one flow's cumulative byte counter (total) as a
// stability signal; during skips record(t, bytes) is invoked at every hop
// target with the closed-form byte credit. key is used for the Cebinae
// heavy-hitter feed when WatchCebinae is also configured. activeFrom is
// the flow's start instant: after it, the flow must carry bytes for the
// network to count as quiescent (an all-zero stall blocks arming).
func (c *Controller) WatchFlow(key packet.FlowKey, activeFrom sim.Time, total func() int64, record func(t sim.Time, bytes int64)) {
	wf := &watchedFlow{key: key, activeFrom: activeFrom, total: total, record: record}
	wf.hist.vals = make([]int64, stableWindows)
	c.flows = append(c.flows, wf)
}

// WatchFlowPinned is WatchFlow for a flow whose stationary rate is known
// from topology — pinned by a dedicated access link below its bottleneck
// share. Quiescence additionally requires the flow's measured rate to
// sit at or above floor (bytes/second): momentary flatness below the
// pinned rate is a transient of the congestion dynamics (slow-start
// ramps, post-loss drains, BBR cruise phases between probes), exactly
// the state a frozen fluid model would extrapolate wrongly. Passing
// math.Inf(1) declares the flow has no pinning evidence at all, making
// the network permanently unprovable — the wiring idiom for multi-flow
// cells whose shares are contest-determined end to end.
func (c *Controller) WatchFlowPinned(key packet.FlowKey, activeFrom sim.Time, total func() int64, record func(t sim.Time, bytes int64), floor float64) {
	c.WatchFlow(key, activeFrom, total, record)
	c.flows[len(c.flows)-1].pinFloor = floor
}

// WatchCebinae routes closed-form egress accounting into a Cebinae port
// during skips: every watched flow's frozen goodput rate, scaled by
// wireFactor (wire bytes per goodput byte, e.g. MTU/MSS for TCP), is fed
// to the port's heavy-hitter cache and byte counters so control-plane
// recomputes across skipped stretches see steady traffic. The port's
// mark/phase/config counters join the discontinuity set; its drops are
// the device's, which WatchDevice watches.
func (c *Controller) WatchCebinae(q *core.Qdisc, wireFactor float64) {
	c.ceb = q
	if wireFactor <= 0 {
		wireFactor = 1
	}
	c.cebWire = wireFactor
	c.WatchCounter(func() uint64 { return q.Stats.ECNMarked })
	c.WatchCounter(func() uint64 { return q.Stats.PhaseChanges + q.ConfigChanges })
}

// WatchCounter registers a discontinuity counter: while sampling, any
// change resets the stability histories; while armed, any change disarms
// at the current instant.
func (c *Controller) WatchCounter(fn func() uint64) {
	c.discos = append(c.discos, fn)
	c.discoLast = append(c.discoLast, 0)
}

// Start begins sampling. The tick is pinned: it is itself an epoch
// boundary, so a skip initiated elsewhere could never jump across a
// scheduled sample.
func (c *Controller) Start() {
	if c.started || c.off {
		return
	}
	c.started = true
	for i, fn := range c.discos {
		c.discoLast[i] = fn()
	}
	c.syncCounters()
	c.eng.ArmPinnedTimer(&c.tick, sampleWindow, (*fluidTick)(c), nil)
}

// ForceOff permanently disables the controller: an immediate fall back
// to packet level (if armed) and no further sampling. Used when the
// run's configuration turns out not to support fluid mode (e.g. the
// scenario was re-planned onto multiple shards mid-setup) and by tests.
func (c *Controller) ForceOff() {
	if c.off {
		return
	}
	c.off = true
	c.stats.ForcedOff = true
	if c.armed {
		c.disarm()
	}
	c.eng.StopTimer(&c.tick)
}

// Armed reports whether the controller is currently in fluid mode.
func (c *Controller) Armed() bool { return c.armed }

// Stats returns activity counters.
func (c *Controller) Stats() Stats { return c.stats }

// fluidTick is the controller's timer handler view.
type fluidTick Controller

func (h *fluidTick) OnEvent(any) { (*Controller)(h).onTick() }

func (c *Controller) onTick() {
	if c.off {
		return
	}
	if c.armed {
		c.armedTick()
		return
	}
	c.sampleTick()
}

// discoDelta reports whether any discontinuity counter moved since the
// last check, updating the snapshots.
func (c *Controller) discoDelta() bool {
	moved := false
	for i, fn := range c.discos {
		if v := fn(); v != c.discoLast[i] {
			c.discoLast[i] = v
			moved = true
		}
	}
	return moved
}

// syncCounters re-bases every per-window delta source at the current
// counter values (after construction, a disarm, or a history reset).
func (c *Controller) syncCounters() {
	for _, wd := range c.devices {
		st := wd.dev.Stats()
		wd.lastTxB, wd.lastTxP = st.TxBytes, st.TxPackets
		wd.lastRxB, wd.lastRxP = st.RxBytes, st.RxPackets
	}
	for _, wf := range c.flows {
		wf.last = wf.total()
	}
}

// resetDetection clears all stability histories and re-bases counters.
func (c *Controller) resetDetection() {
	for _, wd := range c.devices {
		wd.histTxB.reset()
		wd.histTxP.reset()
		wd.histRxB.reset()
		wd.histRxP.reset()
		wd.occHist.reset()
	}
	for _, wf := range c.flows {
		wf.hist.reset()
	}
	c.syncCounters()
}

// sampleTick observes one packet-level window and arms when everything
// has been stable for K windows.
func (c *Controller) sampleTick() {
	c.stats.Windows++
	if c.discoDelta() {
		c.resetDetection()
		c.rearm(sampleWindow)
		return
	}
	stable := true
	for _, wd := range c.devices {
		st := wd.dev.Stats()
		// All four rings advance every window, but only TX bytes and
		// occupancy gate stability: the companion counters are
		// functionally dependent on them in steady state, and their
		// rings exist so arm-time rates come from the same stable span.
		wd.histTxB.push(int64(st.TxBytes - wd.lastTxB))
		wd.histTxP.push(int64(st.TxPackets - wd.lastTxP))
		wd.histRxB.push(int64(st.RxBytes - wd.lastRxB))
		wd.histRxP.push(int64(st.RxPackets - wd.lastRxP))
		wd.lastTxB, wd.lastTxP = st.TxBytes, st.TxPackets
		wd.lastRxB, wd.lastRxP = st.RxBytes, st.RxPackets
		wd.occHist.push(int64(wd.dev.Qdisc().BytesQueued()))
		if !wd.histTxB.stable() || wd.occHist.spread() > queueTol {
			stable = false
		}
		if wd.contested && wd.histTxB.full() {
			capPerWindow := wd.dev.Rate() / 8 * sampleWindow.Seconds()
			if wd.histTxB.mean() >= utilCap*capPerWindow {
				stable = false
			}
		}
	}
	for _, wf := range c.flows {
		v := wf.total()
		wf.hist.push(v - wf.last)
		wf.last = v
		if !wf.hist.stable() {
			stable = false
		}
		// Positivity guard: a flow past its start that moved nothing all
		// window long is stalled, and a stall is not a steady state.
		if c.eng.Now() >= wf.activeFrom && wf.hist.total <= 0 {
			stable = false
		}
		// Pinned-rate guard: a flow below the rate its topology pins it
		// at is in a transient, however flat its last K windows look.
		if wf.pinFloor > 0 && wf.hist.full() &&
			wf.hist.mean() < wf.pinFloor*sampleWindow.Seconds() {
			stable = false
		}
	}
	if !stable {
		c.rearm(sampleWindow)
		return
	}
	c.arm()
	// Skip immediately: the first hop starts at this very sample epoch.
	c.armedTick()
}

// arm freezes the measured rates and enters fluid mode.
func (c *Controller) arm() {
	winSec := sampleWindow.Seconds()
	for _, wd := range c.devices {
		wd.rateTxB = wd.histTxB.mean() / winSec
		wd.rateTxP = wd.histTxP.mean() / winSec
		wd.rateRxB = wd.histRxB.mean() / winSec
		wd.rateRxP = wd.histRxP.mean() / winSec
		wd.remTxB, wd.remTxP, wd.remRxB, wd.remRxP = 0, 0, 0, 0
		wd.occAtArm = wd.dev.Qdisc().BytesQueued()
	}
	for _, wf := range c.flows {
		wf.rate = wf.hist.mean() / winSec
		wf.rem = 0
	}
	c.armed = true
	c.armedSpan = 0
	c.stats.Arms++
}

// disarm falls back to packet level and restarts detection from scratch.
func (c *Controller) disarm() {
	c.armed = false
	c.stats.Disarms++
	c.resetDetection()
}

// armedTick re-validates quiescence at the current instant and, when it
// holds, executes the next hop.
func (c *Controller) armedTick() {
	if c.discoDelta() || c.occPerturbed() || (c.cfg.Resample > 0 && c.armedSpan >= c.cfg.Resample) {
		c.disarm()
		c.rearm(sampleWindow)
		return
	}
	now := c.eng.Now()
	if now >= c.eng.Horizon() {
		// The run is over (events at exactly the horizon still
		// dispatch); re-arming at d=0 here would tick forever.
		return
	}
	target := now + maxSkip
	if p := c.eng.NextPinnedTime(); p < target {
		target = p
	}
	if h := c.eng.Horizon(); h < target {
		target = h
	}
	if target <= now {
		// A pinned event at this instant has not dispatched yet; it
		// sorts before our re-armed tick (smaller seq), so the next tick
		// at this same instant makes progress.
		c.rearm(0)
		return
	}
	c.skip(target - now)
	// Hop again as soon as the control plane at the target instant (if
	// any) has run.
	c.rearm(0)
}

// occPerturbed reports whether any frozen queue's occupancy moved while
// armed — the signature of a pinned traffic event injecting or a control
// event releasing packets.
func (c *Controller) occPerturbed() bool {
	for _, wd := range c.devices {
		if wd.dev.Qdisc().BytesQueued() != wd.occAtArm {
			return true
		}
	}
	return false
}

// rearm schedules the next tick d from now (pinned, like Start).
func (c *Controller) rearm(d sim.Time) {
	if !c.off {
		c.eng.ArmPinnedTimer(&c.tick, d, (*fluidTick)(c), nil)
	}
}

// skip executes one hop of d: jump the clock and advance counters in
// closed form at the frozen rates.
func (c *Controller) skip(d sim.Time) {
	c.eng.FastForward(d)
	sec := d.Seconds()
	for _, wd := range c.devices {
		wd.dev.Credit(netem.DeviceStats{
			TxBytes:   creditU(wd.rateTxB*sec, &wd.remTxB),
			TxPackets: creditU(wd.rateTxP*sec, &wd.remTxP),
			RxBytes:   creditU(wd.rateRxB*sec, &wd.remRxB),
			RxPackets: creditU(wd.rateRxP*sec, &wd.remRxP),
		})
	}
	target := c.eng.Now()
	for _, wf := range c.flows {
		n := credit(wf.rate*sec, &wf.rem)
		if wf.record != nil {
			wf.record(target, n)
		}
	}
	if c.ceb != nil {
		c.feedCebinae(sec)
	}
	// Flow totals are not re-based here: the next disarm re-bases every
	// counter (syncCounters), so whether record feeds the underlying
	// total or a separate series, the first post-disarm window measures
	// only real packet-level bytes.
	c.armedSpan += d
	c.stats.Skips++
	c.stats.SkippedTime += d
}

// feedCebinae credits the skipped stretch's wire traffic to the Cebinae
// port in the watched flows' (deterministic) registration order.
func (c *Controller) feedCebinae(sec float64) {
	fb := make([]core.FlowBytes, 0, len(c.flows))
	wirePkt := float64(packet.MSS + packet.HeaderBytes)
	for _, wf := range c.flows {
		wire := wf.rate * c.cebWire * sec
		if wire <= 0 {
			continue
		}
		fb = append(fb, core.FlowBytes{
			Flow:    wf.key,
			Bytes:   int64(wire),
			Packets: uint64(wire / wirePkt),
		})
	}
	c.ceb.FluidAdvance(fb)
}

// credit converts a fractional byte amount into an integer credit,
// carrying the remainder so repeated skips lose nothing to rounding.
func credit(v float64, rem *float64) int64 {
	v += *rem
	n := int64(v)
	*rem = v - float64(n)
	return n
}

func creditU(v float64, rem *float64) uint64 {
	v += *rem
	n := uint64(v)
	*rem = v - float64(n)
	return n
}
