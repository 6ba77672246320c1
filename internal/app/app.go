// Package app provides non-TCP traffic applications for experiments: blind
// constant-bit-rate (UDP-like) sources and a Poisson flow-churn workload of
// finite TCP transfers. The paper's discussion motivates each: blind flows
// that ignore congestion signals (§4, "a blind UDP flow…") and the
// high-churn conditions of backbone links (§5.5).
package app

import (
	"fmt"
	"strings"

	"cebinae/internal/netem"
	"cebinae/internal/packet"
	"cebinae/internal/sim"
	"cebinae/internal/tcp"
)

// CBR is a blind constant-bit-rate source: 1500-byte packets at a fixed
// rate, no congestion response (a UDP blaster).
type CBR struct {
	eng  *sim.Engine
	node *netem.Node
	key  packet.FlowKey

	// rateBps is the emission rate in bits/second.
	rateBps float64

	Sent  uint64
	timer sim.Timer
}

// cbrPacketBytes is the wire size of every CBR packet.
const cbrPacketBytes = 1500

// cbrTick is the CBR emission-timer handler (named pointer type over CBR:
// no closure, no allocation per packet).
type cbrTick CBR

func (h *cbrTick) OnEvent(any) { (*CBR)(h).tick() }

// NewCBR creates and starts the source at startAt.
func NewCBR(eng *sim.Engine, node *netem.Node, key packet.FlowKey, rateBps float64, startAt sim.Time) *CBR {
	c := &CBR{eng: eng, node: node, key: key, rateBps: rateBps}
	// The start instant is a traffic discontinuity: pinned so a fluid
	// fast-forward skip can never jump across it. Per-packet re-arms in
	// tick are regular and clear the mark.
	eng.ArmPinnedTimerAt(&c.timer, startAt, (*cbrTick)(c), nil)
	return c
}

func (c *CBR) tick() {
	p := c.node.AllocPacket()
	p.Flow = c.key
	p.Size = cbrPacketBytes
	p.PayloadSize = cbrPacketBytes - packet.HeaderBytes
	c.node.Inject(p)
	c.Sent++
	gap := sim.Time(float64(cbrPacketBytes*8) / c.rateBps * 1e9)
	c.eng.ArmTimer(&c.timer, gap, (*cbrTick)(c), nil)
}

// ChurnConfig parameterises a Poisson workload of finite TCP transfers
// between a sender and receiver node pair.
type ChurnConfig struct {
	// ArrivalsPerSec is the Poisson flow arrival rate.
	ArrivalsPerSec float64
	// MeanFlowBytes is the mean of the exponential flow-size distribution.
	MeanFlowBytes int64
	// CC names the congestion control algorithm for every transfer.
	CC string
	// BasePort numbers the flows (incrementing destination ports).
	BasePort uint16
	Seed     uint64
	// MinRTO for the transfers (0 = transport default).
	MinRTO sim.Time
}

// Churn drives finite TCP transfers with Poisson arrivals between src and
// dst, tracking completions.
type Churn struct {
	eng  *sim.Engine
	src  *netem.Node
	dst  *netem.Node
	cfg  ChurnConfig
	rng  *sim.Rand
	next uint16

	Started   uint64
	Completed uint64
	// CompletionTimes collects per-flow transfer durations.
	CompletionTimes []sim.Time
	timer           sim.Timer
}

// churnArrival fires one Poisson arrival: start the flow, draw the next
// inter-arrival gap.
type churnArrival Churn

func (h *churnArrival) OnEvent(any) {
	c := (*Churn)(h)
	c.startFlow()
	c.scheduleNext()
}

// NewChurn creates and starts the workload.
func NewChurn(eng *sim.Engine, src, dst *netem.Node, cfg ChurnConfig) *Churn {
	if cfg.MeanFlowBytes <= 0 {
		cfg.MeanFlowBytes = 100 << 10
	}
	if cfg.CC == "" {
		cfg.CC = "newreno"
	}
	c := &Churn{eng: eng, src: src, dst: dst, cfg: cfg, rng: sim.NewRand(cfg.Seed + 1), next: cfg.BasePort}
	c.scheduleNext()
	return c
}

func (c *Churn) scheduleNext() {
	if c.cfg.ArrivalsPerSec <= 0 {
		return
	}
	gap := sim.Time(c.rng.ExpFloat64() / c.cfg.ArrivalsPerSec * 1e9)
	// Poisson arrivals are traffic discontinuities: pinned (see CBR).
	c.eng.ArmPinnedTimer(&c.timer, gap, (*churnArrival)(c), nil)
}

func (c *Churn) startFlow() {
	size := int64(c.rng.ExpFloat64() * float64(c.cfg.MeanFlowBytes))
	if size < 1448 {
		size = 1448
	}
	key := packet.FlowKey{Src: c.src.ID, Dst: c.dst.ID, SrcPort: c.next, DstPort: c.next + 1, Proto: packet.ProtoTCP}
	c.next += 2
	cc, ok := tcp.NewCC(c.cfg.CC)
	if !ok {
		panic(fmt.Sprintf("app: unknown CC %q (known: %s)", c.cfg.CC, strings.Join(tcp.CCNames(), ", ")))
	}
	start := c.eng.Now()
	conn := tcp.NewConn(c.eng, c.src, tcp.Config{
		Key: key, CC: cc, DataLimit: size,
		Seed: c.cfg.Seed + uint64(c.next), MinRTO: c.cfg.MinRTO,
	})
	tcp.NewReceiver(c.eng, c.dst, tcp.ReceiverConfig{Key: key})
	c.Started++
	conn.OnFinish = func() {
		c.Completed++
		c.CompletionTimes = append(c.CompletionTimes, c.eng.Now()-start)
	}
}
