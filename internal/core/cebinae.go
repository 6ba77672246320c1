package core

import (
	"fmt"
	"sort"

	"cebinae/internal/hhcache"
	"cebinae/internal/packet"
	"cebinae/internal/sim"
)

// Flow groups: the LBF tracks exactly two (paper §4.3) — unbottlenecked (⊥)
// and bottlenecked (⊤).
const (
	groupBottom = 0 // ⊥
	groupTop    = 1 // ⊤
	numGroups   = 2
)

// Stats aggregates Cebinae data-plane and control-plane counters.
type Stats struct {
	Enqueued      uint64
	BufferDrops   uint64 // physical buffer exhaustion
	LBFDrops      uint64 // past-tail drops (rate enforcement)
	Delayed       uint64 // packets scheduled into ¬headq
	ECNMarked     uint64
	Rotations     uint64
	Recomputes    uint64
	PhaseChanges  uint64
	SaturatedTime sim.Time // cumulative time spent in the saturated phase
	TxPackets     uint64
	TxBytes       uint64
}

// Qdisc is Cebinae's per-port data plane plus its control-plane agent,
// packaged as a netem-compatible queue discipline. One Qdisc guards one
// egress port (device).
type Qdisc struct {
	eng         *sim.Engine
	params      Params
	capacityBps float64 // link rate, bits/second
	bufferBytes int

	// Two physical queues; headq indexes the high-priority one.
	queues      [2]packet.Ring
	headq       int
	bytesQueued int

	// LBF state (Fig. 5). Byte counters are float64 to carry fractional
	// rate×time products exactly.
	saturated     bool
	baseRoundTime sim.Time
	roundTime     sim.Time
	groupBytes    [numGroups]float64
	totalBytes    float64 // aggregate counter (phase-change filter, §4.3)
	// qrate[q][g] is the allocation (bytes/second) of group g in physical
	// queue q; a queue's rates are fixed while it drains.
	qrate [2][numGroups]float64

	// Bottlenecked-flow membership (the ⊤ match-action table).
	topSet map[packet.FlowKey]bool
	// topState holds per-⊤-flow banks/allowances when Params.PerFlowTop is
	// enabled (§7 extension).
	topState map[packet.FlowKey]*topFlowState

	// Egress-pipeline accounting.
	cache        *hhcache.Cache
	portTxBytes  uint64
	lastTxBytes  uint64 // snapshot at last recomputation
	roundsSoFar  int
	pendingRates *pendingConfig
	// banks are the two configuration banks configFor fills (Fig. 6's
	// live and shadow copies); live is the one apply installed last,
	// whose ⊤ set is topSet. configFor refills only the other.
	banks [2]pendingConfig
	live  *pendingConfig

	// rotTimer / cfgTimer drive the control loop: one ROTATE per dT and
	// one configuration window vdT+L after it (never overlapping, since
	// Params.Validate requires vdT+L < dT).
	rotTimer sim.Timer
	cfgTimer sim.Timer

	// OnDrain, when set, is invoked after rotations (which can un-gate the
	// future queue) so an idle device resumes transmission; wire it to the
	// owning netem Device's Kick.
	OnDrain func()

	// ConfigChanges counts applied shadow configurations that actually
	// altered the installed state (phase, ⊤ membership, or rates). The
	// fluid fast-forward layer watches it as a discontinuity signal: a
	// steady-state recompute re-deriving identical allocations is benign,
	// anything else forces packet-level re-detection. Kept outside Stats
	// so existing %+v report lines stay byte-identical.
	ConfigChanges uint64

	Stats Stats
}

// pendingConfig is the shadow copy the control plane computes during a
// recomputation and applies at the next configuration window.
type pendingConfig struct {
	saturated bool
	topSet    map[packet.FlowKey]bool
	rates     [numGroups]float64 // bytes/second
	topShare  float64            // ⊤ fraction of capacity (phase-entry split)
	// flowRates carries per-⊤-flow allowances in PerFlowTop mode.
	flowRates map[packet.FlowKey]float64
}

// New creates a Cebinae qdisc for a port of the given capacity and buffer
// and starts its control-plane agent on eng. It panics on invalid Params
// (use Params.Validate to check first).
func New(eng *sim.Engine, capacityBps float64, bufferBytes int, params Params) *Qdisc {
	if err := params.Validate(capacityBps, bufferBytes); err != nil {
		panic(err)
	}
	q := &Qdisc{
		eng:         eng,
		params:      params,
		capacityBps: capacityBps,
		bufferBytes: bufferBytes,
		topSet:      make(map[packet.FlowKey]bool),
		topState:    make(map[packet.FlowKey]*topFlowState),
		cache:       hhcache.New(params.CacheStages, params.CacheSlots),
	}
	for i := range q.banks {
		q.banks[i].topSet = make(map[packet.FlowKey]bool)
	}
	capBytes := capacityBps / 8
	for i := 0; i < 2; i++ {
		q.qrate[i][groupBottom] = capBytes
		q.qrate[i][groupTop] = capBytes
	}
	// Bootstrap the rotation clock: the first ROTATE packet sets the time
	// origin (§4.3); here rotations land on multiples of dT.
	q.baseRoundTime = eng.Now() & ^(params.DT - 1)
	q.roundTime = q.baseRoundTime
	q.scheduleRotation()
	return q
}

// Params returns the configured parameters.
func (q *Qdisc) Params() Params { return q.params }

// Saturated reports the current phase.
func (q *Qdisc) Saturated() bool { return q.saturated }

// TopFlows returns a copy of the current bottlenecked (⊤) flow set in
// canonical 5-tuple order, so monitors and reports printing it emit
// identical lines on every run.
func (q *Qdisc) TopFlows() []packet.FlowKey {
	out := make([]packet.FlowKey, 0, len(q.topSet))
	for f := range q.topSet {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		if a.SrcPort != b.SrcPort {
			return a.SrcPort < b.SrcPort
		}
		if a.DstPort != b.DstPort {
			return a.DstPort < b.DstPort
		}
		return a.Proto < b.Proto
	})
	return out
}

// cebRotate / cebConfigure are the control loop's timer handlers: named
// pointer types over Qdisc, so the per-round rescheduling allocates no
// closures. The configure timer's payload carries the recompute flag
// (boolean boxing is allocation-free).
type (
	cebRotate    Qdisc
	cebConfigure Qdisc
)

func (h *cebRotate) OnEvent(any) { (*Qdisc)(h).rotate() }
func (h *cebConfigure) OnEvent(arg any) {
	(*Qdisc)(h).configure(arg.(bool))
}

// scheduleRotation arms the next ROTATE at the next dT boundary. The
// rotation is a pinned deadline: it is the mandatory discontinuity the
// fluid fast-forward layer must fall back to packet level for, so a
// clock skip can never jump across it (sim.Engine.FastForward).
func (q *Qdisc) scheduleRotation() {
	next := (q.eng.Now()/q.params.DT + 1) * q.params.DT
	q.eng.ArmPinnedTimerAt(&q.rotTimer, next, (*cebRotate)(q), nil)
}

// rotate is the ROTATE packet handler (Fig. 5 lines 9–13): drain the
// finished round's allowance from every bank (both groups, the aggregate
// counter and each per-flow ⊤ bank), advance the round origin, and swap
// queue priorities. The configuration window follows vdT+L later.
func (q *Qdisc) rotate() {
	dtSec := q.params.DT.Seconds()
	last := q.qrate[q.headq]
	for g := range q.groupBytes {
		drain(&q.groupBytes[g], last[g]*dtSec)
	}
	drain(&q.totalBytes, q.capacityBps/8*dtSec)
	for _, st := range q.topState {
		drain(&st.bytes, st.rate*dtSec)
	}
	q.baseRoundTime += q.params.DT
	if q.roundTime < q.baseRoundTime {
		q.roundTime = q.baseRoundTime
	}
	q.headq ^= 1
	q.Stats.Rotations++
	q.roundsSoFar++

	if q.saturated {
		q.Stats.SaturatedTime += q.params.DT
	}

	recompute := q.roundsSoFar%q.params.P == 0
	// Pinned like the rotation: the configuration window must execute at
	// packet level at its exact instant.
	q.eng.ArmPinnedTimer(&q.cfgTimer, q.params.VDT+q.params.L, (*cebConfigure)(q), recompute)
	q.scheduleRotation()
	if q.OnDrain != nil {
		q.OnDrain()
	}
}

// drain retires one round's allowance from a byte bank, floored at zero.
func drain(bank *float64, allowance float64) {
	*bank -= allowance
	if *bank < 0 {
		*bank = 0
	}
}

// configure is the control-plane configuration window (Fig. 6, solid red
// span): apply the shadow config computed at the previous recomputation,
// then — every P rounds — poll the data plane and compute the next one.
func (q *Qdisc) configure(recompute bool) {
	if q.pendingRates != nil {
		q.apply(q.pendingRates)
		q.pendingRates = nil
	}
	if recompute {
		q.pendingRates = q.recompute()
	}
	if q.OnDrain != nil {
		q.OnDrain() // a phase change may have un-gated the future queue
	}
}

// apply installs a shadow configuration: membership, the future queue's
// rates, and phase changes (all within the single-queue window, so no
// reordering — §4.3).
func (q *Qdisc) apply(cfg *pendingConfig) {
	wasSaturated := q.saturated
	if q.configDiffers(cfg) {
		q.ConfigChanges++
	}
	q.topSet, q.live = cfg.topSet, cfg
	if q.params.PerFlowTop {
		q.applyPerFlow(cfg.flowRates)
	}
	// Rates bind to the queue currently accumulating the *next* round.
	q.qrate[1-q.headq] = cfg.rates
	// The draining queue keeps serving at its fixed rates; on the very
	// first configuration after a phase change both queues adopt the new
	// rates (wholesale change, §4.3 "phase changes").
	if cfg.saturated != wasSaturated {
		q.qrate[q.headq] = cfg.rates
		q.Stats.PhaseChanges++
		q.saturated = cfg.saturated
		if cfg.saturated {
			// Entering saturation: split the aggregate counter between the
			// groups proportionally to their allocations (§4.3).
			q.groupBytes[groupTop] = q.totalBytes * cfg.topShare
			q.groupBytes[groupBottom] = q.totalBytes * (1 - cfg.topShare)
		}
	}
}

// configDiffers reports whether installing cfg would change the visible
// control state: the phase, the ⊤ membership, or the next round's rates.
// The membership check is a pure set-equality test, so map iteration
// order cannot affect the result.
func (q *Qdisc) configDiffers(cfg *pendingConfig) bool {
	if cfg.saturated != q.saturated || len(cfg.topSet) != len(q.topSet) {
		return true
	}
	for f := range cfg.topSet {
		if !q.topSet[f] {
			return true
		}
	}
	return cfg.rates != q.qrate[1-q.headq]
}

// recompute is the periodic (every P rounds) control-plane computation of
// Fig. 4: port saturation, ⊤ membership, and taxed rate allocations.
func (q *Qdisc) recompute() *pendingConfig {
	q.Stats.Recomputes++
	txDelta := q.portTxBytes - q.lastTxBytes
	q.lastTxBytes = q.portTxBytes
	return q.configFor(txDelta, q.cache.Poll())
}

// configFor derives the shadow configuration from one interval's port
// transmit bytes and polled cache entries. The result does not depend on
// the entries' order: the ⊤ bytes are summed as integers and converted to
// float once, and everything else is a max or a set.
//
// It refills the bank that is not live, so a recompute allocates nothing
// and never touches the installed ⊤ set. configure installs each result
// before the next recompute, so a bank is refilled only after the other
// one has replaced it as live: two recomputes after it was filled.
func (q *Qdisc) configFor(txDelta uint64, entries []hhcache.Entry) *pendingConfig {
	interval := (q.params.DT * sim.Time(q.params.P)).Seconds()
	capBytes := q.capacityBps / 8
	utilisation := float64(txDelta) / (capBytes * interval)
	cfg := &q.banks[0]
	if cfg == q.live {
		cfg = &q.banks[1]
	}
	*cfg = pendingConfig{topSet: cfg.topSet}
	clear(cfg.topSet)
	if utilisation < 1-q.params.DeltaPort || len(entries) == 0 {
		// Unsaturated: no flow is bottlenecked here; the single aggregate
		// group passes at full capacity.
		cfg.saturated = false
		cfg.rates = [numGroups]float64{capBytes, capBytes}
		cfg.topShare = 0
		return cfg
	}

	var maxBytes int64
	for _, e := range entries {
		if e.Bytes > maxBytes {
			maxBytes = e.Bytes
		}
	}
	threshold := float64(maxBytes) * (1 - q.params.DeltaFlow)
	var topBytes int64
	if q.params.PerFlowTop {
		cfg.flowRates = make(map[packet.FlowKey]float64)
	}
	for _, e := range entries {
		if float64(e.Bytes) >= threshold {
			cfg.topSet[e.Flow] = true
			topBytes += e.Bytes
			if cfg.flowRates != nil {
				cfg.flowRates[e.Flow] = (1 - q.params.Tau) * float64(e.Bytes) / interval
			}
		}
	}
	bottleneckBytes := float64(topBytes) * (1 - q.params.Tau)

	topRate := bottleneckBytes / interval
	if topRate > capBytes {
		topRate = capBytes
	}
	botRate := capBytes - bottleneckBytes/interval
	if botRate < 0 {
		botRate = 0
	}
	cfg.saturated = true
	cfg.rates = [numGroups]float64{groupBottom: botRate, groupTop: topRate}
	cfg.topShare = topRate / capBytes
	return cfg
}

// advanceVirtualRound implements Fig. 5 lines 15–16: quantise time into vdT
// buckets, advancing the per-round clock.
func (q *Qdisc) advanceVirtualRound(now sim.Time) {
	if now >= q.roundTime+q.params.VDT {
		q.roundTime = now & ^(q.params.VDT - 1)
	}
}

// aggregateSize computes the paced allowance floor for group rates
// (rHead, rTail) at the current position within the round (Fig. 5 lines
// 17–22): credit accrues per virtual round instead of all at once, which
// bounds catch-up bursts.
func (q *Qdisc) aggregateSize(rHead, rTail float64) float64 {
	rel := (q.roundTime - q.baseRoundTime) / q.params.VDT
	perRound := q.params.DT / q.params.VDT
	vdtSec := q.params.VDT.Seconds()
	switch {
	case rel < perRound: // within headq's round
		return rHead * float64(rel) * vdtSec
	case rel < 2*perRound: // spilled into ¬headq's round
		return rHead*q.params.DT.Seconds() + float64(rel-perRound)*vdtSec*rTail
	default:
		// Should not happen (rotation keeps rel < 2·dT/vdT); saturate.
		return rHead*q.params.DT.Seconds() + rTail*q.params.DT.Seconds()
	}
}

// bank is the ⊤ match-action table: the byte bank a saturated port charges
// flow to, with its headq and ¬headq rates (bytes/second) — the ⊤ or ⊥
// group's or, under Params.PerFlowTop, the ⊤ flow's own. A ⊤ flow with no
// per-flow state yet is charged as ⊥ (false negatives are tolerable — §4).
func (q *Qdisc) bank(flow packet.FlowKey) (b *float64, rHead, rTail float64) {
	g := groupBottom
	if q.topSet[flow] {
		if !q.params.PerFlowTop {
			g = groupTop
		} else if st := q.topState[flow]; st != nil {
			return &st.bytes, st.rate, st.rate
		}
	}
	return &q.groupBytes[g], q.qrate[q.headq][g], q.qrate[1-q.headq][g]
}

// charged is a bank after admitting size bytes at rates (rHead, rTail),
// floored first at the paced allowance elapsed so far (no banking).
func (q *Qdisc) charged(bank, rHead, rTail float64, size int32) float64 {
	if floor := q.aggregateSize(rHead, rTail); bank < floor {
		bank = floor
	}
	return bank + float64(size)
}

// Enqueue runs Fig. 5's one leaky-bucket test on a packet (netem.Qdisc):
// headq within the headq allowance, ¬headq within both, else drop.
func (q *Qdisc) Enqueue(p *packet.Packet) bool {
	if q.bytesQueued+int(p.Size) > q.bufferBytes {
		q.Stats.BufferDrops++
		return false
	}
	q.advanceVirtualRound(q.eng.Now())

	// Byte counters are charged only for *admitted* packets: a dropped
	// packet consumes no allowance. (Charging before the decision, as a
	// literal reading of Fig. 5 suggests, would let sustained overload pin
	// the counter past the drop threshold indefinitely — nothing forwarded
	// yet the bank never drains — collapsing the port into drop-all.)
	//
	// Unsaturated, the test runs against the aggregate counter at full
	// capacity. It only trips on bursts beyond two full rounds, which the
	// buffer bound (Eq. 2) makes unreachable before a physical drop; in
	// practice this is pass-through into the current queue. Saturated, it
	// runs against the packet's bank, and the aggregate counter still
	// follows every admitted packet for the next phase change.
	capBytes := q.capacityBps / 8
	total := q.charged(q.totalBytes, capBytes, capBytes, p.Size)
	b, rHead, rTail := &q.totalBytes, capBytes, capBytes
	after := total
	if q.saturated {
		b, rHead, rTail = q.bank(p.Flow)
		after = q.charged(*b, rHead, rTail, p.Size)
	}

	dtSec := q.params.DT.Seconds()
	target := q.headq
	pastHead := after - rHead*dtSec
	if pastHead > 0 {
		if pastHead-rTail*dtSec > 0 {
			q.Stats.LBFDrops++
			return false
		}
		// Delayed; a saturated port may mark ECN as the pre-loss
		// congestion signal (Fig. 5 line 26).
		if q.saturated && q.params.MarkECN && p.ECN == packet.ECNECT {
			p.ECN = packet.ECNCE
			q.Stats.ECNMarked++
		}
		target = 1 - q.headq
		q.Stats.Delayed++
	}
	q.totalBytes = total
	*b = after
	q.push(target, p)
	return true
}

func (q *Qdisc) push(target int, p *packet.Packet) {
	q.bytesQueued += int(p.Size)
	q.Stats.Enqueued++
	q.queues[target].Push(p)
}

// Dequeue serves the current round's queue and performs the egress-pipeline
// accounting (port byte counter + heavy-hitter cache) on the transmitted
// packet.
//
// While the port is saturated, ¬headq is strictly gated until the next
// rotation: a packet scheduled into the future round must wait for that
// round, which is what actually caps a ⊤ group's forwarded rate at its
// allowance — and therefore what makes the τ tax compound across
// recomputations (measured rate ≈ allowance ⇒ next allowance ≈ (1−τ)·
// previous). A work-conserving dequeue would leak future-round packets
// early whenever headq drains and the tax would stall after one step. The
// idle time this introduces is the headroom Cebinae deliberately maintains
// for ⊥ flows to grow into. When unsaturated the discipline is work-
// conserving.
func (q *Qdisc) Dequeue() *packet.Packet {
	p := q.queues[q.headq].Pop()
	if p == nil && !q.saturated {
		p = q.queues[1-q.headq].Pop()
	}
	if p == nil {
		return nil
	}
	q.bytesQueued -= int(p.Size)
	q.portTxBytes += uint64(p.Size)
	q.Stats.TxPackets++
	q.Stats.TxBytes += uint64(p.Size)
	q.cache.Observe(p.Flow, int64(p.Size))
	return p
}

// Len returns the number of queued packets.
func (q *Qdisc) Len() int { return q.queues[0].Len() + q.queues[1].Len() }

// BytesQueued returns the buffered byte total.
func (q *Qdisc) BytesQueued() int { return q.bytesQueued }

func (q *Qdisc) String() string {
	return fmt.Sprintf("cebinae{sat=%v top=%d head=%d qlen=%d}", q.saturated, len(q.topSet), q.headq, q.Len())
}
