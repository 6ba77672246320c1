// Package shard runs one netem topology across several sim.Engine
// instances — one goroutine per shard — using conservative time-window
// synchronisation (a barrier-synchronised variant of the classical
// CMB/null-message family of parallel discrete-event schemes).
//
// A Cluster is a netem.Fabric: topology builders place nodes on shards
// and every link between shards becomes a cut link — a pair of
// netem.ConnectHalf devices bridged by bounded SPSC handoff queues. The
// cluster's lookahead W is the minimum propagation delay over all cut
// links. Execution proceeds in windows of width W, each split into two
// barrier-separated phases: first every shard drains its inbound handoff
// queues (injecting cross-shard arrivals in (time, link, FIFO) order),
// the cluster barriers, then every shard dispatches its local events up
// to the window horizon and the cluster barriers again. Draining never
// pushes, so during a drain phase every producer is quiescent and the
// barrier's happens-before edge makes the plain (atomics-free) handoff
// queues safe — no push ever overlaps a drain. A packet whose
// transmission completes at time t inside a window arrives at t+delay ≥
// t+W, which is strictly beyond the window horizon — so every
// cross-shard arrival is injected in the drain phase of a window before
// the one that dispatches it, and no shard ever sees an event "from the
// past".
//
// Byte-identical results. Node IDs are allocated from one cluster-global
// counter in builder call order, so flow keys, RNG seeds, and connection
// state match the single-engine build exactly. Each hop costs exactly one
// arrival event in both modes — an entry on a wire stream, pushed by the
// local transmitter as serialisation starts (onto the stream its delay and
// serialisation time share) or injected with the source's completion stamp
// across a cut (onto the cut-link half's own) — plus a transmit completion
// on the source exactly when a packet waits behind the one on the link, so
// engine event counts match.
// Cross-shard arrivals carry the virtual time their last bit left the
// source device, and the destination engine orders events by
// (time, emission time, seq) — so a same-nanosecond tie between an
// injected arrival and a local event resolves exactly as it would on a
// single merged engine, where the arrival is keyed by that same
// completion instant. That makes even dense-traffic links
// (access links at backbone flow counts) safe to cut. The residual
// freedom is the coincidence class where both the instant and the
// emission time collide across shards; there the drain order
// (arrival, emission, inbound link) decides, deterministically for a
// fixed topology. The experiments package locks the guarantee down with
// differential tests that require byte-identical reports at 1, 2, 3, and
// 4 shards, hand-placed and auto-partitioned.
//
// Partitioning is either hand-placed (builders pass shard hints to
// NodeOn) or automatic: PlanGraph computes a min-cut partition of the
// recorded topology graph that maximises the lookahead window and
// balances estimated event load, and NewClusterWithPlan overrides the
// builder's hints with it (see partition.go).
//
// Windows widen adaptively: at each barrier the cluster bounds, per cut
// link, the earliest instant the source device could complete another
// transmission (in-flight serialisation, pending local events, queued
// inbound arrivals) and extends the window to just short of the earliest
// possible cross-shard arrival when that beats horizon+W. Quiescent
// stretches then cost barriers proportional to actual traffic, not to
// elapsed virtual time. SetAdaptive(false) restores fixed-width windows.
package shard

import (
	"fmt"

	"cebinae/internal/netem"
	"cebinae/internal/packet"
	"cebinae/internal/sim"
)

// Shard is one partition: an engine, its network (with a private packet
// pool), and the cut links that terminate here.
type Shard struct {
	Engine *sim.Engine
	Net    *netem.Network

	inbound []*cutLink
	pending []pendingArrival
}

// Cluster partitions one simulated topology across n engines. It
// implements netem.Fabric, so netem's topology builders run on it
// unchanged. Construction (NodeOn/Connect) and Run must be called from a
// single goroutine; Run spawns and joins the per-shard workers itself.
type Cluster struct {
	shards []*Shard
	links  []*cutLink
	nodes  int
	// plan, when non-nil, overrides NodeOn's shard hint: the i-th created
	// node lands on plan[i] (see NewClusterWithPlan).
	plan []int
	// horizon is the furthest time Run has advanced to; a later Run call
	// resumes the window schedule from here instead of replaying it.
	horizon sim.Time
	// fixed disables adaptive window widening (SetAdaptive).
	fixed bool
	// wake is nextHorizon's per-shard scratch.
	wake []sim.Time
	// now, when non-nil, is the wall-clock source for barrier-stall
	// accounting (Instrument). The simulation itself never reads it.
	now func() int64

	// Stats accumulates window-scheduling telemetry across Run calls.
	Stats RunStats
}

// RunStats is the cluster's window-scheduling telemetry.
type RunStats struct {
	// Windows counts barrier-synchronised windows executed.
	Windows uint64
	// Widened counts windows whose horizon the adaptive lookahead pushed
	// beyond the classic horizon+W.
	Widened uint64
	// BarrierStallNs sums, over every barrier phase, the wall-clock gap
	// between the first and the last shard reaching the barrier — the
	// time imbalanced shards sit idle. Zero unless Instrument installed
	// a clock.
	BarrierStallNs int64
}

// NewCluster returns a cluster of n empty shards (n >= 1). A 1-shard
// cluster is exactly a single-engine simulation: no cut links, no
// barriers, no extra goroutines.
func NewCluster(n int) *Cluster {
	if n < 1 {
		panic(fmt.Sprintf("shard: cluster needs at least one shard, got %d", n))
	}
	c := &Cluster{}
	for i := 0; i < n; i++ {
		eng := sim.NewEngine()
		c.shards = append(c.shards, &Shard{Engine: eng, Net: netem.NewNetwork(eng)})
	}
	return c
}

// NewClusterWithPlan returns a cluster that places nodes according to an
// automatically computed partition plan (PlanGraph / AutoPlan): the i-th
// NodeOn call lands on plan.Assign[i] regardless of the builder's shard
// hint. The builder must make exactly the construction calls the plan
// was recorded from.
func NewClusterWithPlan(plan Plan) *Cluster {
	c := NewCluster(plan.Shards)
	c.plan = plan.Assign
	return c
}

// SetAdaptive toggles adaptive window widening (on by default). Fixed
// windows exist for measurement and for differential tests that pin both
// schedules to the same byte-identical result.
func (c *Cluster) SetAdaptive(on bool) { c.fixed = !on }

// Instrument installs a wall-clock source (typically
// time.Now().UnixNano from the measurement harness — the simulation
// packages themselves never read wall clocks) enabling barrier-stall
// accounting in Stats. Pass nil to disable.
func (c *Cluster) Instrument(now func() int64) { c.now = now }

// Shards returns the partition count.
func (c *Cluster) Shards() int { return len(c.shards) }

// Shard returns partition i.
func (c *Cluster) Shard(i int) *Shard { return c.shards[i] }

// NodeOn creates a node on partition `shard` (clamped to the valid
// range). IDs come from a cluster-global counter in call order, so the
// node numbering is identical to the same builder running on a plain
// Network. On a plan-backed cluster (NewClusterWithPlan) the plan's
// assignment for this creation ordinal wins over the hint.
func (c *Cluster) NodeOn(shard int, name string) *netem.Node {
	if c.plan != nil && c.nodes < len(c.plan) {
		shard = c.plan[c.nodes]
	}
	if shard < 0 {
		shard = 0
	}
	if shard >= len(c.shards) {
		shard = len(c.shards) - 1
	}
	c.nodes++
	return c.shards[shard].Net.NewNodeWithID(packet.NodeID(c.nodes), name)
}

// Connect links a and b: a local peered pair when both live on the same
// shard, a cut-link pair (two half devices bridged by handoff queues)
// otherwise. Cut links must have positive delay — the conservative
// lookahead is the minimum latency over all cut links, and a zero-delay
// cut would leave no window to parallelise.
func (c *Cluster) Connect(a, b *netem.Node, cfg netem.LinkConfig) (*netem.Device, *netem.Device) {
	sa, sb := c.shardOf(a), c.shardOf(b)
	if sa == sb {
		return c.shards[sa].Net.Connect(a, b, cfg)
	}
	if cfg.Delay <= 0 {
		panic(fmt.Sprintf("shard: cut link %s<->%s needs positive propagation delay (the conservative lookahead is the minimum cut-link latency)", a.Name, b.Name))
	}
	ab := &cutLink{src: c.shards[sa], dst: c.shards[sb], srcIdx: sa, delay: cfg.Delay}
	ba := &cutLink{src: c.shards[sb], dst: c.shards[sa], srcIdx: sb, delay: cfg.Delay}
	da := c.shards[sa].Net.ConnectHalf(a, b.Name, cfg, ab)
	db := c.shards[sb].Net.ConnectHalf(b, a.Name, cfg, ba)
	ab.srcDev, ba.srcDev = da, db
	ab.dstDev, ba.dstDev = db, da
	c.links = append(c.links, ab, ba)
	c.shards[sb].inbound = append(c.shards[sb].inbound, ab)
	c.shards[sa].inbound = append(c.shards[sa].inbound, ba)
	return da, db
}

var _ netem.Fabric = (*Cluster)(nil)

func (c *Cluster) shardOf(n *netem.Node) int {
	for i, s := range c.shards {
		if s.Net == n.Network() {
			return i
		}
	}
	panic(fmt.Sprintf("shard: node %s does not belong to this cluster", n.Name))
}

// Lookahead returns the conservative window width: the minimum
// propagation delay over all cut links (MaxTime when nothing is cut).
func (c *Cluster) Lookahead() sim.Time {
	w := sim.MaxTime
	for _, l := range c.links {
		if l.delay < w {
			w = l.delay
		}
	}
	return w
}

// Processed sums dispatched events across all shard engines — comparable
// with a single engine's Processed counter for the same scenario.
func (c *Cluster) Processed() uint64 {
	var n uint64
	for _, s := range c.shards {
		n += s.Engine.Processed
	}
	return n
}

// cmd is one phase issued to a shard worker: a drain phase (run == false,
// empty the inbound handoff queues) or a run phase (run == true, dispatch
// local events up to horizon h). The two phases never overlap across
// shards — Cluster.Run barriers between them — which is what makes the
// unsynchronised handoff queues safe.
type cmd struct {
	run bool
	h   sim.Time
}

// Run advances every shard to `until` in barrier-synchronised windows of
// the cluster lookahead, each window a drain phase then a run phase (see
// the package doc). Calls with increasing horizons resume the window
// schedule where the previous call left off; a horizon at or below the
// previous one is a no-op — the cluster clock never moves backward. With
// no cut links (one shard, or a topology that never crossed partitions)
// it degenerates to plain sequential Run calls. A panic on any shard is
// re-raised on the caller's goroutine after the in-flight phase joins,
// so the fleet orchestrator's per-job recovery still contains it.
func (c *Cluster) Run(until sim.Time) {
	if until <= c.horizon {
		return
	}
	if len(c.links) == 0 {
		for _, s := range c.shards {
			s.Engine.RunUntil(until)
		}
		c.horizon = until
		return
	}
	w := c.Lookahead()
	done := make(chan any, len(c.shards))
	cmds := make([]chan cmd, len(c.shards))
	for i, s := range c.shards {
		ch := make(chan cmd)
		cmds[i] = ch
		go func(s *Shard, cmds <-chan cmd) {
			for p := range cmds {
				done <- s.step(p)
			}
		}(s, ch)
	}
	defer func() {
		for _, ch := range cmds {
			close(ch)
		}
	}()
	// The window schedule is a pure function of (lookahead, horizon,
	// until) and of the simulation state at each barrier, so it is
	// identical across runs of the same configuration.
	next := c.horizon
	for {
		next = c.nextHorizon(next, until, w)
		// Drain phase: every producer is draining (never pushing), so the
		// consumers' reads of the handoff queues cannot race. Arrivals
		// handed off in the previous run phase land strictly beyond that
		// window's horizon, so injecting them here is never "in the past".
		c.phase(cmds, done, cmd{})
		// Run phase: every shard dispatches up to the window horizon,
		// pushing cross-shard handoffs for the next drain phase.
		c.phase(cmds, done, cmd{run: true, h: next})
		c.Stats.Windows++
		c.horizon = next
		if next >= until {
			return
		}
	}
}

// satAdd adds a non-negative delta to a time, saturating at MaxTime.
func satAdd(t, d sim.Time) sim.Time {
	if s := t + d; s >= t {
		return s
	}
	return sim.MaxTime
}

// nextHorizon picks the next window horizon with the cluster quiescent at
// `from` (every event up to `from` dispatched, workers parked at the
// barrier, so reading shard state here is race-free). The classic
// conservative choice is from+w — any transmission starting inside the
// window lands at least the minimum cut delay beyond its start. When
// every cut link can prove its next possible handoff lies further out —
// no packet mid-serialisation, no pending local event, no queued inbound
// arrival that could wake the source shard any earlier — the window
// widens to just short of the earliest possible cross-shard arrival.
// Either way every arrival generated inside the window lands strictly
// beyond it, preserving the "never inject into the past" invariant.
func (c *Cluster) nextHorizon(from, until, w sim.Time) sim.Time {
	next := satAdd(from, w)
	if next > until {
		next = until
	}
	if c.fixed {
		return next
	}
	// wake[i] bounds shard i's next dispatch: its engine's next pending
	// event or the earliest queued cross-shard arrival about to be
	// injected into it at the next drain phase.
	if c.wake == nil {
		c.wake = make([]sim.Time, len(c.shards))
	}
	for i, s := range c.shards {
		wk := s.Engine.NextEventTime()
		for _, l := range s.inbound {
			if a := l.q.peekArrival(); a < wk {
				wk = a
			}
		}
		c.wake[i] = wk
	}
	// bound: no cross-shard arrival generated after `from` can precede it.
	// A busy device hands its next packet off no earlier than its
	// in-flight completion, when that packet can start (the one on the
	// link was handed off when it started); an idle device can only start
	// transmitting inside some future dispatch on its shard.
	bound := sim.MaxTime
	for _, l := range c.links {
		hb := c.wake[l.srcIdx]
		if l.srcDev.Busy() {
			hb = l.srcDev.NextHandoffBound()
		}
		if b := satAdd(hb, l.delay); b < bound {
			bound = b
		}
	}
	if cand := bound - 1; cand > next {
		if cand > until {
			cand = until
		}
		if cand > next {
			next = cand
			c.Stats.Widened++
		}
	}
	return next
}

// phase issues one command to every worker and joins the barrier,
// re-raising the first shard failure on the caller's goroutine. With an
// instrumentation clock installed it charges the wall-clock spread
// between the first and last worker completion to BarrierStallNs.
func (c *Cluster) phase(cmds []chan cmd, done <-chan any, p cmd) {
	for _, ch := range cmds {
		ch <- p
	}
	var failure any
	var first int64
	for i := range c.shards {
		if r := <-done; r != nil && failure == nil {
			failure = r
		}
		if c.now != nil {
			switch i {
			case 0:
				first = c.now()
			case len(c.shards) - 1:
				c.Stats.BarrierStallNs += c.now() - first
			}
		}
	}
	if failure != nil {
		panic(failure)
	}
}

// step executes one phase on the shard's worker goroutine; a panic is
// returned, not propagated, so the barrier always completes.
func (s *Shard) step(p cmd) (failure any) {
	defer func() { failure = recover() }()
	if p.run {
		s.Engine.RunUntil(p.h)
	} else {
		s.drainInbound()
	}
	return nil
}

// pendingArrival is one drained handoff record plus the inbound-slot
// ordinal used as the deterministic tie-break for same-instant arrivals
// from different links.
type pendingArrival struct {
	rec  record
	link int
}

// drainInbound empties every inbound queue and injects the packets onto
// the destination devices' wire streams, ordered by (arrival, emission,
// inbound link, per-link FIFO). One link's records keep their FIFO order
// through the sort — the sorted pushes a stream requires — and injection
// in the global order assigns ascending local sequence
// numbers, so the destination engine's (time, emission time, seq)
// dispatch order reproduces the single-engine order for every
// same-instant tie except the exact (arrival, emission) double
// coincidence across links, which the link ordinal breaks
// deterministically. The sort is an in-place stable insertion sort —
// per-link runs arrive already ordered, so it is near-linear and, like
// the drain itself, allocation-free at steady state (closures and
// sort.SliceStable's reflection both cost per-window allocations at
// every barrier; see TestWindowSteadyStateAllocs).
func (s *Shard) drainInbound() {
	s.pending = s.pending[:0]
	for li := range s.inbound {
		s.inbound[li].q.drainInto(&s.pending, li)
	}
	p := s.pending
	for i := 1; i < len(p); i++ {
		for j := i; j > 0 && arrivalLess(&p[j], &p[j-1]); j-- {
			p[j], p[j-1] = p[j-1], p[j]
		}
	}
	for i := range p {
		e := &p[i]
		pkt := e.rec.restore(s.Net.Pool())
		s.inbound[e.link].dstDev.InjectArrivalFrom(e.rec.arrival, e.rec.sent, pkt)
	}
}

// arrivalLess is drainInbound's strict (arrival, emission, link) order.
func arrivalLess(a, b *pendingArrival) bool {
	if a.rec.arrival != b.rec.arrival {
		return a.rec.arrival < b.rec.arrival
	}
	if a.rec.sent != b.rec.sent {
		return a.rec.sent < b.rec.sent
	}
	return a.link < b.link
}

// cutLink is one direction of a severed inter-shard link: the source
// half-device's Handoff target and the queue the destination drains in
// drain phases.
type cutLink struct {
	src, dst *Shard
	srcIdx   int // source shard's index (nextHorizon's wake lookup)
	srcDev   *netem.Device
	dstDev   *netem.Device
	delay    sim.Time
	q        spsc
}

// Handoff runs on the source shard's goroutine as the packet's
// serialisation starts (a run phase): copy the packet into a pool-free
// record, release the
// source packet, and queue the record for the destination's next drain
// phase.
func (l *cutLink) Handoff(p *packet.Packet, sent, arrival sim.Time) {
	var r record
	r.capture(p, sent, arrival)
	l.src.Net.Pool().Put(p)
	l.q.push(&r)
}
