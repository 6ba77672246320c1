package experiments

// The backbone scenario family is the paper's Fig.-13 regime run live: a
// 10 Gbps core carrying a CAIDA-like flow population (10⁵–10⁶ standing
// flows plus >400k flows/min of churn) through a Cebinae switch. Flows are
// driven by internal/replay — compact paced senders, not TCP state
// machines — which is what makes the million-flow tier a benchmark row
// instead of a slogan. The run stress-tests the cardinality-sensitive
// components at real cardinality: the heavy-hitter cache (recall of the
// true top-K), the count-min sketch (overestimate bias, never-undercount
// invariant), and the max-min allocator (water-filling over every observed
// flow).

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"cebinae/internal/cmsketch"
	"cebinae/internal/core"
	"cebinae/internal/hhcache"
	"cebinae/internal/maxmin"
	"cebinae/internal/netem"
	"cebinae/internal/packet"
	"cebinae/internal/qdisc"
	"cebinae/internal/replay"
	"cebinae/internal/sim"
	"cebinae/internal/trace"
)

// BackboneConfig parameterises one backbone run.
type BackboneConfig struct {
	Name string
	// Flows is the standing population target (flows in progress at t=0).
	Flows int
	// CoreBps is the bottleneck core link's rate; AccessBps the edge
	// links feeding it.
	CoreBps   float64
	AccessBps float64
	Duration  SimTime
	// Qdisc selects the core discipline: Cebinae or FIFO.
	Qdisc QdiscKind
	// Trace is the flow schedule generator configuration.
	Trace trace.Config
	// Shards partitions the run (≤ 1 = one engine); the min-cut planner
	// places the four-node chain, cutting the core link first and the
	// access links beyond two shards.
	Shards int
}

// Every backbone run shares one core and one instrument geometry: a 2 ms
// core link with an 8 MiB egress buffer; closed-loop senders (drops and CE
// marks slow them down — required for Cebinae's tax to bite) whose pacing
// cadence a hash of each flow record scatters by ±20 % (see
// replay.Config.RTTSpread), modelling the RTT diversity of a real backbone
// population; and, for the cardinality stress, a 4 × 65536 count-min
// sketch and a 2-stage × 2048-slot flow cache, both scored on the true
// top 64 flows.
const (
	backboneCoreDelay       = SimTime(2e6)
	backboneBufferBytes     = 8 << 20
	backboneRTTSpread       = 0.2
	sketchRows, sketchCols  = 4, 1 << 16
	cacheStages, cacheSlots = 2, 2048
	topK                    = 64
)

// BackboneTier returns the canonical configuration for a standing
// population of `flows` (1e5 and 1e6 are the named tiers). The trace's
// LifetimeScale is set by Little's law: with the default churn rate and
// millisecond lifetimes the standing population would collapse within a
// few ms of t=0, so lifetimes stretch proportionally to the target
// population and the population stays near `flows` for the whole window.
func BackboneTier(flows int, scale Scale) BackboneConfig {
	//lint:ignore simtime the horizon is a scale fraction of 400 ms (« 2^53 ns); sub-nanosecond rounding of a run length is immaterial
	dur := SimTime(float64(Seconds(0.4)) * float64(scale))
	if dur < Millis(40) {
		dur = Millis(40)
	}
	tc := trace.DefaultConfig()
	tc.Duration = dur
	tc.StandingFlows = flows
	tc.LifetimeScale = float64(flows) / 2000
	tc.LinkBps = 0 // no offline thinning: the replay loop paces live
	tc.Seed = 1
	return BackboneConfig{
		Name:      fmt.Sprintf("backbone-%dk", flows/1000),
		Flows:     flows,
		CoreBps:   10e9,
		AccessBps: 40e9,
		Duration:  dur,
		Qdisc:     Cebinae,
		Trace:     tc,
	}
}

// BackboneResult aggregates one backbone run.
type BackboneResult struct {
	Config BackboneConfig

	// Flow population.
	FlowsSeen  int // unique flows observed at the core
	Started    uint64
	Finished   uint64
	PeakActive int

	// Core link.
	SentPackets    uint64
	CoreTxPackets  uint64
	CoreTxBytes    uint64
	CoreDropPkts   uint64
	UtilizationPct float64

	// Closed loop.
	SinkPackets uint64
	LostBytes   uint64
	CEMarks     uint64
	Feedbacks   uint64
	RateCuts    uint64

	// Cebinae internals (zero for FIFO cores).
	CebStats core.Stats

	// Cardinality stress scores.
	CacheRecallTopK        float64
	CacheOccupied          int
	SketchOverestimatePct  float64 // mean relative overestimate on true top-K
	SketchUnderestimates   int     // count-min must never undercount: 0
	MaxMinFlows            int
	MaxMinFairShareBps     float64
	MaxMinSumBps           float64
	MaxMinSaturatedDemands int

	Events uint64
}

// backboneObserver taps the core device's transmit hook: the exact packet
// stream the control plane of a core switch would see. It feeds the cache
// under test and keeps exact per-flow truth for scoring, indexed by the
// FlowID every replay packet carries. The count-min sketch under test is
// not fed per packet: scoreBackbone derives it from the truth.
type backboneObserver struct {
	cache *hhcache.Cache
	truth []trace.FlowCount // by FlowID; Bytes 0 = not seen
}

func (o *backboneObserver) observe(p *packet.Packet) {
	if p.PayloadSize <= 0 {
		return // feedback headers are not flow traffic
	}
	sz := int64(p.Size)
	o.cache.Observe(p.Flow, sz)
	// Every packet here is a replay Source's, so FlowID ≥ 1 (the
	// closed-loop sink refuses untagged ones).
	id := int(p.FlowID)
	for len(o.truth) <= id {
		o.truth = append(o.truth, trace.FlowCount{})
	}
	o.truth[id].Flow = p.Flow
	o.truth[id].Bytes += sz
}

// backbonePoller drains the stress cache every interval on the core
// shard's engine — the control plane's poll-and-reset loop — merging each
// round's entries into the set of flows the cache ever reported. Without
// the resets a HashPipe cache saturates with the first arrivals and the
// recall score measures slot ownership, not detection.
type backbonePoller struct {
	timer    sim.Timer
	eng      *sim.Engine
	cache    *hhcache.Cache
	interval sim.Time
	held     map[packet.FlowKey]bool
	peakOcc  int
}

func (b *backbonePoller) OnEvent(any) {
	b.poll()
	b.eng.ArmTimer(&b.timer, b.interval, b, nil)
}

func (b *backbonePoller) poll() {
	for _, e := range b.cache.Poll() {
		b.held[e.Flow] = true
	}
	if occ := b.cache.Stats().Occupied; occ > b.peakOcc {
		b.peakOcc = occ
	}
}

// RunBackbone executes one backbone scenario.
func RunBackbone(cfg BackboneConfig) BackboneResult {
	if err := cfg.Trace.Validate(); err != nil {
		panic(err)
	}
	schedule := trace.Flows(cfg.Trace)

	// Chain: src — sw1 ═(core)═ sw2 — dst, partitioned by the min-cut
	// planner. Two shards cut the core link (2 ms lookahead); three and
	// four also cut the 200 µs access links, which stay byte-identical
	// because cross-shard injections carry their emission stamp.
	edge := func() netem.Qdisc { return qdisc.NewFIFO(64 << 20) }
	access := netem.LinkConfig{RateBps: cfg.AccessBps, Delay: sim.Duration(200e3), QdiscFactory: edge}
	build := func(f netem.Fabric) (src, dst *netem.Node, core *netem.Device) {
		t := netem.NewTopo(f)
		src, sw1, sw2 := t.Host("src"), t.Switch("sw1"), t.Switch("sw2")
		dst = t.Host("dst")
		t.Link(src, sw1, access)
		core, _ = t.Link(sw1, sw2, netem.LinkConfig{RateBps: cfg.CoreBps, Delay: backboneCoreDelay, QdiscFactory: edge})
		t.Link(sw2, dst, access)
		t.Route()
		return src, dst, core
	}
	cl := newCluster(cfg.Shards, func(f netem.Fabric) { build(f) })
	src, dst, coreFwd := build(cl)

	// The core egress discipline under test, on the engine that owns it.
	rtt := 2 * (backboneCoreDelay + 2*sim.Duration(200e3))
	PortQdisc{Kind: cfg.Qdisc, BufferBytes: backboneBufferBytes, CebinaeRTT: rtt}.install(coreFwd)
	cq, _ := coreFwd.Qdisc().(*core.Qdisc)

	obs := &backboneObserver{
		cache: hhcache.New(cacheStages, cacheSlots),
		truth: make([]trace.FlowCount, 0, len(schedule)+1),
	}
	coreFwd.OnTransmit = obs.observe

	// Control-plane polling at a quarter of the run — the cadence, like
	// the cache itself, lives on the engine that owns the core device.
	poller := &backbonePoller{
		eng:      coreFwd.Node().Engine(),
		cache:    obs.cache,
		interval: cfg.Duration / 4,
		held:     make(map[packet.FlowKey]bool),
	}
	poller.eng.ArmTimer(&poller.timer, poller.interval, poller, nil)

	source := replay.NewSource(src, schedule, replay.Config{
		To:          dst.ID,
		PacketBytes: cfg.Trace.MeanPacketBytes,
		ClosedLoop:  true,
		ECN:         true,
		RTTSpread:   backboneRTTSpread,
	})
	sink := replay.NewSink(dst, replay.SinkConfig{ClosedLoop: true})

	cl.Run(cfg.Duration)

	res := BackboneResult{
		Config:        cfg,
		Started:       source.Stats.Started,
		Finished:      source.Stats.Finished,
		PeakActive:    source.Stats.PeakActive,
		SentPackets:   source.Stats.SentPackets,
		CoreTxPackets: coreFwd.Stats().TxPackets,
		CoreTxBytes:   coreFwd.Stats().TxBytes,
		CoreDropPkts:  coreFwd.Stats().DropPackets,
		SinkPackets:   sink.Stats.Packets,
		LostBytes:     sink.Stats.LostBytes,
		CEMarks:       sink.Stats.CEMarks,
		Feedbacks:     source.Stats.Feedbacks,
		RateCuts:      source.Stats.RateCuts,
		Events:        cl.Processed(),
	}
	if cq != nil {
		res.CebStats = cq.Stats
	}
	res.UtilizationPct = 100 * float64(res.CoreTxBytes*8) / (cfg.CoreBps * cfg.Duration.Seconds())
	poller.poll() // final partial round
	scoreBackbone(&res, obs, poller, cfg)
	recycleCluster(cl)
	return res
}

// scoreBackbone computes the cardinality-stress scores from the observer's
// ground truth: cache recall on the true top-K, the bias on the same set
// of a count-min sketch built here from every flow's byte total, and the
// ideal water-filling allocation over every observed flow.
func scoreBackbone(res *BackboneResult, obs *backboneObserver, poller *backbonePoller, cfg BackboneConfig) {
	// Rank the flows seen by bytes, heaviest first, ties broken by the
	// flow key's hash — computed once per flow, not per comparison. The
	// ranking is an index of FlowIDs into the observer's truth.
	truth := obs.truth
	ties := make([]uint64, len(truth))
	rank := make([]int32, 0, len(truth))
	for id, fc := range truth {
		if fc.Bytes > 0 {
			rank = append(rank, int32(id))
			ties[id] = fc.Flow.Hash(0)
		}
	}
	res.FlowsSeen = len(rank)
	if len(rank) == 0 {
		return
	}
	slices.SortFunc(rank, func(a, b int32) int {
		if c := cmp.Compare(truth[b].Bytes, truth[a].Bytes); c != 0 {
			return c
		}
		return cmp.Compare(ties[a], ties[b])
	})

	k := min(topK, len(rank))

	// Cache recall: how many of the true top-K the polled cache ever
	// reported across the control-plane rounds.
	res.CacheOccupied = poller.peakOcc
	hit := 0
	for _, id := range rank[:k] {
		if poller.held[truth[id].Flow] {
			hit++
		}
	}
	if k > 0 {
		res.CacheRecallTopK = float64(hit) / float64(k)
	}

	// Sketch bias on the true top-K; estimates below truth violate the
	// count-min invariant and are counted, never averaged away. One Add
	// per flow of its total leaves the counters a per-packet Add of the
	// core's stream would (TestAddOrderFree in internal/cmsketch).
	sketch := cmsketch.New(sketchRows, sketchCols)
	for _, fc := range truth {
		if fc.Bytes > 0 {
			sketch.Add(fc.Flow, fc.Bytes)
		}
	}
	var overSum float64
	for _, id := range rank[:k] {
		fc := truth[id]
		est := sketch.Estimate(fc.Flow)
		if est < fc.Bytes {
			res.SketchUnderestimates++
			continue
		}
		overSum += float64(est-fc.Bytes) / float64(fc.Bytes)
	}
	if n := k - res.SketchUnderestimates; n > 0 {
		res.SketchOverestimatePct = 100 * overSum / float64(n)
	}

	// Ideal max-min over the observed flow set: one shared link, each
	// flow's demand its achieved mean rate. The water level is the fair
	// share an omniscient allocator would give the unconstrained flows.
	// Every flow's route is that one link: one slice serves them all
	// (Allocate only reads routes).
	net := &maxmin.Network{
		Capacity: []float64{cfg.CoreBps},
		Routes:   make([][]int, len(rank)),
		Demand:   make([]float64, len(rank)),
	}
	core := []int{0}
	secs := cfg.Duration.Seconds()
	for i, id := range rank {
		net.Routes[i] = core
		net.Demand[i] = float64(truth[id].Bytes*8) / secs
	}
	rates, err := maxmin.Allocate(net)
	if err != nil {
		panic(fmt.Sprintf("experiments: backbone max-min: %v", err))
	}
	res.MaxMinFlows = len(rates)
	for i, r := range rates {
		res.MaxMinSumBps += r
		if r > res.MaxMinFairShareBps {
			res.MaxMinFairShareBps = r
		}
		if r >= net.Demand[i] {
			res.MaxMinSaturatedDemands++
		}
	}
}

// Render prints the backbone report section (deterministic: no wall-clock,
// no map iteration).
func (r BackboneResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Backbone tier %s — %s core, %s, %d standing flows\n",
		r.Config.Name, bpsLabel(r.Config.CoreBps), r.Config.Qdisc, r.Config.Flows)
	fmt.Fprintf(&sb, "  population: %d flows seen at core, %d started, %d finished, peak %d concurrent\n",
		r.FlowsSeen, r.Started, r.Finished, r.PeakActive)
	fmt.Fprintf(&sb, "  core: %d pkts tx, %.1f MB, %d drops, utilization %.1f%%\n",
		r.CoreTxPackets, float64(r.CoreTxBytes)/1e6, r.CoreDropPkts, r.UtilizationPct)
	fmt.Fprintf(&sb, "  loop: %d delivered, %.1f MB lost, %d CE, %d feedbacks, %d rate cuts\n",
		r.SinkPackets, float64(r.LostBytes)/1e6, r.CEMarks, r.Feedbacks, r.RateCuts)
	if r.Config.Qdisc == Cebinae {
		fmt.Fprintf(&sb, "  cebinae: %d rotations, %d recomputes, %d delayed, %d ECN, LBF drops %d\n",
			r.CebStats.Rotations, r.CebStats.Recomputes, r.CebStats.Delayed, r.CebStats.ECNMarked, r.CebStats.LBFDrops)
	}
	fmt.Fprintf(&sb, "  hhcache %dx%d: top-%d recall %.3f, peak %d slots occupied\n",
		cacheStages, cacheSlots, topK, r.CacheRecallTopK, r.CacheOccupied)
	fmt.Fprintf(&sb, "  cmsketch %dx%d: +%.2f%% mean overestimate on top-%d, %d underestimates\n",
		sketchRows, sketchCols, r.SketchOverestimatePct, topK, r.SketchUnderestimates)
	fmt.Fprintf(&sb, "  maxmin: %d flows, fair share %s, sum %s, %d demand-limited\n",
		r.MaxMinFlows, bpsLabel(r.MaxMinFairShareBps), bpsLabel(r.MaxMinSumBps), r.MaxMinSaturatedDemands)
	fmt.Fprintf(&sb, "  events: %d\n", r.Events)
	return sb.String()
}

// bpsLabel formats a bit rate compactly and deterministically.
func bpsLabel(bps float64) string {
	switch {
	case bps >= 1e9:
		return fmt.Sprintf("%.2f Gbps", bps/1e9)
	case bps >= 1e6:
		return fmt.Sprintf("%.2f Mbps", bps/1e6)
	case bps >= 1e3:
		return fmt.Sprintf("%.2f kbps", bps/1e3)
	default:
		return fmt.Sprintf("%.0f bps", bps)
	}
}
