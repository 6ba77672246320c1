// Package cebinae is a from-scratch Go implementation of Cebinae — the
// scalable in-network fairness augmentation mechanism of Yu, Sonchack and
// Liu (SIGCOMM '22) — together with every substrate its evaluation depends
// on: a deterministic packet-level network simulator; a SACK-capable TCP
// with the five congestion-control algorithms the paper's evaluation runs
// (NewReno, Cubic, BIC, Vegas, BBRv1); baseline queue disciplines
// (drop-tail FIFO, FQ-CoDel, AFQ, PCQ, and the §3.2 strawman); a
// HashPipe-style heavy-hitter cache; a max-min water-filling allocator; a
// synthetic backbone trace generator; traffic applications; and a Tofino
// resource model.
//
// This package is the stable public surface: it re-exports the building
// blocks needed to attach a Cebinae queue discipline to a simulated link
// and drive traffic through it. The experiments package layered on top
// reproduces every table and figure of the paper's evaluation.
//
// A minimal session:
//
//	eng := cebinae.NewEngine()
//	net := cebinae.NewNetwork(eng)
//	a, b := net.NewNode("a"), net.NewNode("b")
//	dev, rev := net.Connect(a, b, cebinae.LinkConfig{RateBps: 100e6, Delay: cebinae.Millis(1)})
//	q := cebinae.NewQdisc(eng, 100e6, 450*1500, cebinae.DefaultParams(100e6, 450*1500, cebinae.Millis(40)))
//	q.OnDrain = dev.Kick
//	dev.SetQdisc(q)
//	rev.SetQdisc(cebinae.NewFIFO(1 << 20))
//	// … attach TCP endpoints, run eng, read q.Stats …
package cebinae

import (
	"time"

	"cebinae/internal/app"
	"cebinae/internal/core"
	"cebinae/internal/metrics"
	"cebinae/internal/netem"
	"cebinae/internal/packet"
	"cebinae/internal/qdisc"
	"cebinae/internal/sim"
	"cebinae/internal/tcp"
)

// Simulation engine.
type (
	// Engine is the discrete-event scheduler every simulation runs on.
	Engine = sim.Engine
	// Time is a virtual-time instant in nanoseconds.
	Time = sim.Time
	// Func adapts a plain func() to the engine's event handler, for
	// Engine.ScheduleCall(delay, cebinae.Func(fn), nil).
	Func = sim.Func
)

// NewEngine returns a fresh simulation engine with the clock at zero.
func NewEngine() *Engine { return sim.NewEngine() }

// Duration converts a standard library duration to simulation time.
func Duration(d time.Duration) Time { return sim.Duration(d) }

// Millis builds a simulation time from milliseconds.
func Millis(ms float64) Time { return Time(ms * 1e6) }

// Seconds builds a simulation time from seconds.
func Seconds(s float64) Time { return Time(s * 1e9) }

// Network model.
type (
	// Network owns the nodes and links of one simulated topology.
	Network = netem.Network
	// Node is a host or switch.
	Node = netem.Node
	// Device is one end of a full-duplex link (with a qdisc slot).
	Device = netem.Device
	// LinkConfig parameterises Network.Connect.
	LinkConfig = netem.LinkConfig
	// Queue is the queue-discipline interface a Device drains; FIFO,
	// FQ-CoDel, and the Cebinae Qdisc all satisfy it.
	Queue = netem.Qdisc
	// FlowKey is the 5-tuple flow identity.
	FlowKey = packet.FlowKey
	// Packet is a simulated datagram.
	Packet = packet.Packet
	// DumbbellConfig / Dumbbell build the canonical single-bottleneck
	// topology.
	DumbbellConfig = netem.DumbbellConfig
	Dumbbell       = netem.Dumbbell
	// ParkingLotConfig / ParkingLot build the multi-bottleneck chain.
	ParkingLotConfig = netem.ParkingLotConfig
	ParkingLot       = netem.ParkingLot
)

// NewNetwork creates an empty topology bound to eng.
func NewNetwork(eng *Engine) *Network { return netem.NewNetwork(eng) }

// BuildDumbbell constructs a dumbbell topology.
func BuildDumbbell(w *Network, cfg DumbbellConfig) *Dumbbell { return netem.BuildDumbbell(w, cfg) }

// BuildParkingLot constructs a parking-lot chain topology.
func BuildParkingLot(w *Network, cfg ParkingLotConfig) *ParkingLot {
	return netem.BuildParkingLotOn(w, cfg)
}

// The Cebinae mechanism (the paper's contribution).
type (
	// Params are Cebinae's Table-1 parameters (δp, δf, τ, P, L, dT, vdT).
	Params = core.Params
	// Qdisc is a Cebinae-guarded egress port: the two-queue leaky-bucket
	// filter plus its control-plane agent.
	Qdisc = core.Qdisc
	// QdiscStats are Cebinae's data-/control-plane counters.
	QdiscStats = core.Stats
)

// DefaultParams derives the paper's robust defaults (δ = τ = 1%) for a port
// of the given capacity and buffer, sized for flows up to maxRTT.
func DefaultParams(capacityBps float64, bufferBytes int, maxRTT Time) Params {
	return core.DefaultParams(capacityBps, bufferBytes, maxRTT)
}

// NewQdisc creates a Cebinae qdisc and starts its control-plane agent.
// Wire its OnDrain to the owning Device's Kick so rotations restart an
// idle transmitter.
func NewQdisc(eng *Engine, capacityBps float64, bufferBytes int, p Params) *Qdisc {
	return core.New(eng, capacityBps, bufferBytes, p)
}

// Baseline disciplines.

// NewFIFO returns a byte-bounded drop-tail queue (the FIFO baseline).
func NewFIFO(limitBytes int) Queue { return qdisc.NewFIFO(limitBytes) }

// NewFQCoDel returns an FQ-CoDel instance with ideal per-flow queues (the
// FQ baseline). A quantum of 0 selects one MTU.
func NewFQCoDel(eng *Engine, limitBytes, quantum int) Queue {
	return qdisc.NewFQCoDel(eng, limitBytes, quantum, qdisc.DefaultCoDelParams())
}

// NewAFQ returns an Approximate Fair Queueing instance (NSDI '18) with nQ
// calendar slots of bpr bytes per round — the paper's §2 scalability
// comparison. Zero limitBytes/sketchCols select defaults.
func NewAFQ(nQ int, bpr int64, limitBytes, sketchCols int) Queue {
	return qdisc.NewAFQ(nQ, bpr, limitBytes, sketchCols)
}

// NewPCQ returns a Programmable-Calendar-Queues instance (NSDI '20), which
// squashes beyond-horizon packets into the last slot instead of dropping.
func NewPCQ(nQ int, bpr int64, limitBytes, sketchCols int) Queue {
	return qdisc.NewPCQ(nQ, bpr, limitBytes, sketchCols)
}

// NewStrawman returns the §3.2 token-bucket strawman: on saturation it
// freezes every flow at the maximal observed rate (for comparison runs —
// it cannot repair existing unfairness). It checks for saturation every
// 100 ms and counts the link saturated at 99 % utilisation.
func NewStrawman(eng *Engine, capacityBps float64, bufferBytes int) Queue {
	return core.NewStrawman(eng, capacityBps, bufferBytes)
}

// Transport.
type (
	// Conn is a TCP sender with SACK loss recovery and pluggable
	// congestion control.
	Conn = tcp.Conn
	// ConnConfig parameterises a sender.
	ConnConfig = tcp.Config
	// Receiver is the TCP sink (cumulative ACKs + SACK blocks).
	Receiver = tcp.Receiver
	// ReceiverConfig parameterises a sink.
	ReceiverConfig = tcp.ReceiverConfig
	// CongestionControl is the pluggable CCA interface.
	CongestionControl = tcp.CongestionControl
)

// NewConn creates a TCP sender on node src.
func NewConn(eng *Engine, src *Node, cfg ConnConfig) *Conn { return tcp.NewConn(eng, src, cfg) }

// NewReceiver creates a TCP sink on node dst.
func NewReceiver(eng *Engine, dst *Node, cfg ReceiverConfig) *Receiver {
	return tcp.NewReceiver(eng, dst, cfg)
}

// NewCC constructs a congestion-control module by name; the registered
// names are those CCNames returns.
func NewCC(name string) (CongestionControl, bool) { return tcp.NewCC(name) }

// CCNames lists the registered congestion-control names in sorted order.
func CCNames() []string { return tcp.CCNames() }

// Metrics.
type (
	// FlowMeter accumulates per-flow deliveries into rates and series.
	FlowMeter = metrics.FlowMeter
)

// SeriesInstants lists the instants FlowMeter.Series(interval, horizon)
// reads, for FlowMeter.Mark.
func SeriesInstants(interval, horizon Time) []Time {
	return metrics.SeriesInstants(interval, horizon)
}

// JFI computes Jain's Fairness Index of a rate vector.
func JFI(rates []float64) float64 { return metrics.JFI(rates) }

// NormalizedJFI computes the max-min-relative JFI of the paper's §5.3.
func NormalizedJFI(measured, ideal []float64) float64 {
	return metrics.NormalizedJFI(measured, ideal)
}

// Traffic applications (non-TCP sources and churn workloads).
type (
	// CBRSource is a blind constant-bit-rate (UDP-like) source.
	CBRSource = app.CBR
	// Churn drives finite TCP transfers with Poisson arrivals.
	Churn = app.Churn
	// ChurnConfig parameterises a Churn workload.
	ChurnConfig = app.ChurnConfig
)

// NewCBRSource creates and starts a blind CBR source at startAt.
func NewCBRSource(eng *Engine, node *Node, key FlowKey, rateBps float64, startAt Time) *CBRSource {
	return app.NewCBR(eng, node, key, rateBps, startAt)
}

// NewChurn creates and starts a Poisson workload of finite TCP transfers.
func NewChurn(eng *Engine, src, dst *Node, cfg ChurnConfig) *Churn {
	return app.NewChurn(eng, src, dst, cfg)
}
