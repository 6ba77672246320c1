// Package experiments reproduces every table and figure of the Cebinae
// paper's evaluation (§5): a generic single-bottleneck scenario runner
// (Table 2, Figs. 1, 7, 8, 9, 10, 12), a parking-lot multi-bottleneck
// runner (Fig. 11), the heavy-hitter accuracy harness (Fig. 13), and the
// Tofino resource model (Table 3). Each figure is a list of runs plus a
// text renderer over the runner's results that prints the same
// rows/series the paper reports; BenchSections runs every run as its own
// fleet job.
//
// Experiments are no longer code-only: the same config structs are the
// lowering targets of declarative scenario files (scenarios/*.json,
// package cebinae/internal/scenario), so a workload can be described,
// versioned, and swept without recompiling. A spec file and a hand-built
// Go config that describe the same experiment produce byte-identical
// reports.
package experiments

import (
	"fmt"

	"cebinae/internal/core"
	"cebinae/internal/fluid"
	"cebinae/internal/metrics"
	"cebinae/internal/sim"
)

// SimTime aliases the simulator's nanosecond timestamp so external callers
// (examples, tools) can build scenario durations and RTTs without importing
// internal packages.
type SimTime = sim.Time

// CebinaeParams aliases the mechanism's Table-1 parameter set.
type CebinaeParams = core.Params

// DefaultCebinaeParams derives default Cebinae parameters for a scenario's
// bottleneck (capacity, buffer, and maximum group RTT).
func DefaultCebinaeParams(s Scenario) CebinaeParams {
	return core.DefaultParams(s.BottleneckBps, s.BufferBytes, maxRTT(s.Groups))
}

// Millis builds a SimTime from milliseconds.
func Millis(v float64) SimTime { return SimTime(v * 1e6) }

// Seconds builds a SimTime from seconds.
func Seconds(v float64) SimTime { return SimTime(v * 1e9) }

// QdiscKind selects the bottleneck discipline under test.
type QdiscKind string

const (
	FIFO     QdiscKind = "fifo"
	FQ       QdiscKind = "fq"       // FQ-CoDel with ideal per-flow queues
	AFQ      QdiscKind = "afq"      // calendar-queue approximate fair queueing (NSDI '18)
	PCQ      QdiscKind = "pcq"      // programmable calendar queues (NSDI '20): squash, don't drop
	Strawman QdiscKind = "strawman" // the §3.2 token-bucket freezer
	Cebinae  QdiscKind = "cebinae"  // the paper's mechanism
)

// Scale trades run length for fidelity. The paper's runs are 100 s; the
// quick scale shortens them so the full suite fits in a test/bench budget
// while preserving comparative shape.
type Scale float64

const (
	Quick  Scale = 0.08 // 8 s horizon
	Medium Scale = 0.3  // 30 s
	Full   Scale = 1.0  // paper-length (100 s)
)

// FlowGroup declares a homogeneous group of flows in a scenario.
type FlowGroup struct {
	CC    string
	Count int
	// RTT is the group's base round-trip time.
	RTT sim.Time
	// StartAt optionally delays the group's flows (Fig. 10 arrivals).
	StartAt sim.Time
}

// Scenario is a single-bottleneck (dumbbell) experiment configuration.
// It can be built in Go or compiled from a "dumbbell" scenario file
// (internal/scenario); both paths hand Run the same struct.
type Scenario struct {
	Name          string
	BottleneckBps float64
	BufferBytes   int
	Groups        []FlowGroup
	Duration      sim.Time
	Qdisc         QdiscKind
	// AccessBps overrides the edge-link rate (default 0: 10× the
	// bottleneck, so edges never constrain). Setting it below
	// BottleneckBps/N builds an access-limited dumbbell whose stationary
	// allocation is pinned per flow — the canonical provably-quiescent
	// cell for the fluid fast-forward differential.
	AccessBps float64
	// Params overrides Cebinae's parameters (nil = DefaultParams).
	Params *core.Params
	// MinRTO clamps each sender's retransmission timer (0 selects
	// defaultMinRTO, NS-3's 1 s).
	MinRTO SimTime
	// WarmupFraction of the run is excluded from averaged metrics (0
	// selects defaultWarmupFraction, 1/5).
	WarmupFraction float64
	Seed           uint64
	// SampleInterval enables time-series sampling when non-zero.
	SampleInterval sim.Time
	// FastForward enables the hybrid fluid/packet accelerator
	// (internal/fluid): when every link's rate and occupancy have been
	// provably quiescent for a stability window, the run skips ahead in
	// closed form between control-plane deadlines, falling back to exact
	// packet level on any discontinuity. Off by default (false keeps
	// every report byte-identical to the pure packet-level run). Fluid
	// mode only engages with a fifo/fq/cebinae bottleneck — anything else
	// forces it off (Result.FF.ForcedOff) and runs exact.
	FastForward bool
}

// The defaults every TCP run of this package takes when its spec leaves
// the field zero. GraphConfig.start fills them for the graph, chain and
// dumbbell runners; the extension runners that wire tcp.Conn directly
// read defaultMinRTO here.
const (
	// defaultMinRTO is the RFC 6298 one-second minimum NS-3 uses, matching
	// the paper's simulations (tcp.Config's own 200 ms default is Linux's).
	defaultMinRTO = SimTime(1e9)
	// defaultWarmupFraction is the share of a run excluded from averaged
	// metrics.
	defaultWarmupFraction = 0.2
)

// bottleneckDelay is the one-way propagation delay of every dumbbell's
// shared link; each flow's sender access link makes up the rest of its RTT.
const bottleneckDelay = SimTime(100e3)

// MinRTT is the smallest base RTT a dumbbell flow can have: the
// bottleneck's delay both ways, over zero-delay access links. Run panics
// on a flow group below it; spec files and the -rtt flag are refused.
const MinRTT = 2 * bottleneckDelay

// FlowResult is one flow's measured outcome — the one per-flow record of
// the dumbbell, chain and graph runners.
type FlowResult struct {
	Index int
	// Label names a multi-hop flow by its sender group: the chain's paper
	// label ("long0", "x1.0", …) or a graph flow group's From.
	Label      string `json:",omitempty"`
	CC         string
	RTT        sim.Time
	GoodputBps float64
	// Series is the per-interval goodput (bytes/sec) when sampling is on.
	Series []float64
}

// Result aggregates a scenario run.
type Result struct {
	Scenario Scenario
	Flows    []FlowResult
	// ThroughputBps is the bottleneck's wire rate (bits/sec) over the
	// whole run, slow start included.
	ThroughputBps float64
	// GoodputBps is the flows' aggregate in-order delivery rate
	// (bits/sec) over the post-warmup window only. The two windows
	// differ, so GoodputBps may exceed ThroughputBps: a stall before the
	// warmup edge lowers only the throughput, and bytes received before
	// the edge behind a hole count as goodput once the hole fills.
	GoodputBps float64
	JFI        float64
	// JFISeries is the per-interval JFI over flows active in the interval.
	JFISeries []float64
	// StateSeries marks, per sample interval, Cebinae's phase: 'u' for
	// unsaturated, 'S' for saturated (the background colouring of the
	// paper's Fig. 1). Empty unless sampling a Cebinae run.
	StateSeries []byte
	// CebStats is populated for Cebinae runs.
	CebStats core.Stats
	Events   uint64
	// FF reports the fluid fast-forward controller's activity when the
	// scenario requested fast-forward (zero value otherwise). ForcedOff
	// is set when the request could not be honoured (an ineligible
	// bottleneck qdisc) and the run fell back to exact packet level.
	// Deliberately not part of Report(), so fast-forward bookkeeping
	// never perturbs the byte-identity contract.
	FF FFStats
}

// FFStats mirrors fluid.Stats for Result consumers without forcing them
// to import internal/fluid.
type FFStats = fluid.Stats

func maxRTT(groups []FlowGroup) sim.Time {
	var m sim.Time
	for _, g := range groups {
		if g.RTT > m {
			m = g.RTT
		}
	}
	return m
}

// graph lowers the dumbbell to the switch graph Run builds, in
// netem.BuildDumbbell's declaration order: switches sw1 and sw2, the
// bottleneck (whose A→B port is the scenario's discipline), then per flow
// a one-host sender group at sw1, whose access delay makes up the flow's
// base RTT, and its one-host receiver group at sw2 — so node IDs, and every
// flow key and Cebinae cache hash they fix, are BuildDumbbell's. It panics,
// naming the flow, on a base RTT below MinRTT.
func (s Scenario) graph() GraphConfig {
	access := s.AccessBps
	if access == 0 {
		access = 10 * s.BottleneckBps
	}
	g := GraphConfig{
		Name:     s.Name,
		Switches: []GraphSwitch{{Name: "sw1"}, {Name: "sw2"}},
		Links: []GraphLink{{
			A: "sw1", B: "sw2", RateBps: s.BottleneckBps, Delay: bottleneckDelay,
			QdiscAB: PortQdisc{Kind: s.Qdisc, BufferBytes: s.BufferBytes, CebinaeRTT: maxRTT(s.Groups), params: s.Params},
		}},
		Duration: s.Duration, WarmupFraction: s.WarmupFraction, MinRTO: s.MinRTO, Seed: s.Seed,
	}
	for _, fg := range s.Groups {
		for k := 0; k < fg.Count; k++ {
			i := len(g.Flows)
			if fg.RTT < MinRTT {
				panic(fmt.Sprintf("experiments: dumbbell flow %d: base RTT %d ns is below twice the %d ns bottleneck delay", i, int64(fg.RTT), int64(bottleneckDelay)))
			}
			snd, rcv := fmt.Sprintf("s%d", i), fmt.Sprintf("r%d", i)
			g.Hosts = append(g.Hosts,
				GraphHostGroup{Name: snd, Count: 1, Attach: "sw1", RateBps: access, Delay: fg.RTT/2 - bottleneckDelay},
				GraphHostGroup{Name: rcv, Count: 1, Attach: "sw2", RateBps: access})
			g.Flows = append(g.Flows, GraphFlowGroup{From: snd, To: rcv, CC: fg.CC, StartAt: fg.StartAt})
		}
	}
	return g
}

// Run executes a dumbbell scenario: its graph, built and measured by the
// graph runner on one engine, plus what only a dumbbell measures — per-flow
// RTTs and series, bottleneck throughput, Cebinae's statistics and phase,
// the JFI series and fast-forward.
func Run(s Scenario) Result {
	g := s.graph().start(1)
	// The result's scenario carries the defaults start filled.
	s.WarmupFraction, s.MinRTO = g.cfg.WarmupFraction, g.cfg.MinRTO
	sh, bottleneck := g.cl.Shard(0), g.fwd[0]
	cq, _ := bottleneck.Qdisc().(*core.Qdisc)

	ffc, ffForcedOff := setupFastForward(s, sh.Net, bottleneck, g.fs, g.warmup)

	var sampler *stateSampler
	if s.SampleInterval > 0 && cq != nil {
		// The state buffer is pre-sized from the run length so appends
		// never reallocate.
		n := int((s.Duration + s.SampleInterval - 1) / s.SampleInterval)
		sampler = &stateSampler{
			eng: sh.Engine, cq: cq, interval: s.SampleInterval,
			states: make([]byte, 0, n),
		}
		// Pinned: sample instants are measurement epochs the fluid
		// fast-forward layer must never skip across (placement is
		// invisible to the event stream when fast-forward is unused).
		sh.Engine.ArmPinnedTimer(&sampler.timer, s.SampleInterval, sampler, nil)
	}

	if s.SampleInterval > 0 {
		grid := metrics.SeriesInstants(s.SampleInterval, s.Duration)
		for _, m := range g.fs.meters {
			m.Mark(grid...)
		}
	}

	gr := g.measure()

	res := Result{Scenario: s, JFI: gr.JFI, Events: gr.Events}
	if ffc != nil {
		res.FF = ffc.Stats()
	} else if ffForcedOff {
		res.FF.ForcedOff = true
	}
	if sampler != nil {
		res.StateSeries = sampler.states
	}
	for _, fg := range s.Groups {
		for k := 0; k < fg.Count; k++ {
			i := len(res.Flows)
			fr := FlowResult{Index: i, CC: fg.CC, RTT: fg.RTT, GoodputBps: gr.Flows[i].GoodputBps}
			if s.SampleInterval > 0 {
				fr.Series = g.fs.meters[i].Series(s.SampleInterval, s.Duration)
			}
			res.Flows = append(res.Flows, fr)
			res.GoodputBps += fr.GoodputBps
		}
	}
	res.ThroughputBps = float64(bottleneck.Stats().TxBytes) * 8 / s.Duration.Seconds()
	if cq != nil {
		res.CebStats = cq.Stats
	}
	if s.SampleInterval > 0 {
		res.JFISeries = g.fs.jfiSeries(res.Flows, s.SampleInterval, s.Duration)
	}
	g.recycle()
	return res
}

// warmupEdge is the end of a run's warmup: frac of its duration.
func warmupEdge(duration sim.Time, frac float64) sim.Time {
	//lint:ignore simtime warmup is a fraction of a bounded scenario duration (minutes at most, « 2^53 ns); sub-nanosecond rounding of a measurement window is immaterial
	return sim.Time(float64(duration) * frac)
}

// horizon is a run's length at scale: the paper's length (ns) scaled, and
// no shorter than floor.
func horizon(scale Scale, paper float64, floor sim.Time) sim.Time {
	return max(sim.Time(float64(scale)*paper), floor)
}

// stateSampler records the bottleneck qdisc's phase ('S'/'u') once per
// sampling interval, rescheduling itself via an embedded timer.
type stateSampler struct {
	eng      *sim.Engine
	cq       *core.Qdisc
	interval sim.Time
	timer    sim.Timer
	states   []byte
}

func (sp *stateSampler) OnEvent(any) {
	if sp.cq.Saturated() {
		sp.states = append(sp.states, 'S')
	} else {
		sp.states = append(sp.states, 'u')
	}
	sp.eng.ArmPinnedTimer(&sp.timer, sp.interval, sp, nil)
}

// Report flattens a Result into a canonical text form — the same kind of
// byte stream a report file would carry — so drift anywhere in the
// pipeline (between runs, shard counts, or a scenario file and its
// hand-built Go equivalent) shows up as a byte difference.
func (r Result) Report() string {
	s := fmt.Sprintf("events=%d throughput=%.6f goodput=%.6f jfi=%.9f\n",
		r.Events, r.ThroughputBps, r.GoodputBps, r.JFI)
	for _, f := range r.Flows {
		s += fmt.Sprintf("flow %d cc=%s rtt=%d goodput=%.6f series=%v\n",
			f.Index, f.CC, f.RTT, f.GoodputBps, f.Series)
	}
	s += fmt.Sprintf("jfiseries=%v states=%s\n", r.JFISeries, r.StateSeries)
	s += fmt.Sprintf("cebstats=%+v\n", r.CebStats)
	return s
}
