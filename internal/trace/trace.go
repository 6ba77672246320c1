// Package trace generates synthetic backbone-like packet traces for the
// heavy-hitter detection experiment (paper Fig. 13). The paper replays
// CAIDA anonymised captures from a 10 Gbps ISP link (>400,000 flows/min);
// those traces are access-restricted, so this generator substitutes a
// statistically similar workload: Poisson flow arrivals with a heavy-tailed
// (bounded Pareto) flow-size distribution and per-flow mean rates, which
// reproduces the properties the experiment depends on — extreme skew (a few
// heavy hitters among a sea of mice) and high flow churn.
//
// The generator has two products. Generate materialises the trace as a
// time-sorted packet list (the offline input for sketch/cache evaluation);
// Flows stops one level higher and returns the per-flow schedule — arrival
// instant, size, lifetime — which is what internal/replay consumes to drive
// the packets through a live netem topology instead of a file.
package trace

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"cebinae/internal/packet"
	"cebinae/internal/sim"
)

// lifetimeExp is the sub-linear exponent tying flow lifetime to flow size:
// lifetime ∝ size^lifetimeExp. Elephants therefore persist far longer than
// mice while still achieving much higher mean rates (size^(1-lifetimeExp)
// grows with size), which is what makes them heavy hitters.
const lifetimeExp = 0.55

// Config parameterises the generator.
type Config struct {
	// Duration of the trace.
	Duration sim.Time
	// FlowsPerMinute controls the Poisson arrival rate of new flows.
	FlowsPerMinute float64
	// ParetoAlpha is the flow-size tail index (≈1.1–1.3 for Internet
	// traffic; smaller = heavier tail).
	ParetoAlpha float64
	// MinFlowBytes / MaxFlowBytes bound the flow-size distribution.
	MinFlowBytes int64
	MaxFlowBytes int64
	// MeanPacketBytes sizes individual packets (constant size keeps the
	// generator cheap; byte counts are what the cache tracks).
	MeanPacketBytes int
	// LinkBps caps the aggregate emission rate (packets are thinned
	// uniformly when the offered load exceeds it).
	LinkBps float64
	// Seed drives the deterministic RNG.
	Seed uint64

	// StandingFlows seeds the trace with flows already in progress at t=0
	// — the steady-state population a backbone link carries at any
	// instant. Sizes are drawn length-biased (the probability a flow is
	// "in progress" at a random instant is proportional to its lifetime,
	// i.e. to size^lifetimeExp, so the standing population samples the
	// bounded Pareto with tail index ParetoAlpha−lifetimeExp) and each
	// flow is advanced a uniform fraction through its life. Zero means a
	// cold start: the link carries only flows that arrive after t=0.
	StandingFlows int
	// LifetimeScale stretches every flow's lifetime (0 means 1, no
	// stretch). The default lifetimes give CAIDA-like millisecond churn;
	// a backbone tier that wants 10⁵–10⁶ *concurrent* flows within a
	// short simulated window raises this so rate×lifetime reaches the
	// target standing population (Little's law).
	LifetimeScale float64
}

// DefaultConfig approximates the paper's CAIDA replay: >400k flows/min on a
// 10 Gbps link.
func DefaultConfig() Config {
	return Config{
		Duration:        sim.Duration(1e9), // 1 s
		FlowsPerMinute:  420000,
		ParetoAlpha:     1.2,
		MinFlowBytes:    400,
		MaxFlowBytes:    1 << 30,
		MeanPacketBytes: 700,
		LinkBps:         10e9,
		Seed:            1,
	}
}

// Validate reports the first nonsensical parameter, or nil. Generate and
// Flows panic on an invalid config (programming error, matching netem's
// treatment of bad link configs); CLIs call Validate themselves to turn
// flag mistakes into error messages instead of stack traces.
func (c Config) Validate() error {
	switch {
	case c.Duration <= 0:
		return fmt.Errorf("trace: Duration must be positive, got %v", c.Duration)
	case c.FlowsPerMinute < 0:
		return fmt.Errorf("trace: FlowsPerMinute must not be negative, got %v", c.FlowsPerMinute)
	case c.FlowsPerMinute == 0 && c.StandingFlows == 0:
		return errors.New("trace: FlowsPerMinute must be positive (a zero arrival rate is only meaningful with StandingFlows)")
	case c.MinFlowBytes <= 0:
		return fmt.Errorf("trace: MinFlowBytes must be positive, got %d", c.MinFlowBytes)
	case c.MaxFlowBytes < c.MinFlowBytes:
		return fmt.Errorf("trace: MaxFlowBytes %d below MinFlowBytes %d", c.MaxFlowBytes, c.MinFlowBytes)
	case c.MeanPacketBytes <= 0:
		return fmt.Errorf("trace: MeanPacketBytes must be positive, got %d", c.MeanPacketBytes)
	case c.ParetoAlpha <= 0:
		return fmt.Errorf("trace: ParetoAlpha must be positive, got %v", c.ParetoAlpha)
	case c.ParetoAlpha <= lifetimeExp && c.StandingFlows > 0:
		return fmt.Errorf("trace: ParetoAlpha %v must exceed %v for length-biased standing-flow sampling", c.ParetoAlpha, lifetimeExp)
	case c.StandingFlows < 0:
		return fmt.Errorf("trace: StandingFlows must not be negative, got %d", c.StandingFlows)
	case c.LifetimeScale < 0:
		return fmt.Errorf("trace: LifetimeScale must not be negative, got %v", c.LifetimeScale)
	case c.LinkBps < 0:
		return fmt.Errorf("trace: LinkBps must not be negative, got %v", c.LinkBps)
	}
	return nil
}

// Pkt is one trace record.
type Pkt struct {
	At    sim.Time
	Flow  packet.FlowKey
	Bytes int
}

// FlowSpec is one flow of the schedule: Bytes arrive spread uniformly over
// [At, At+Lifetime). For a standing flow (in progress at t=0) At is zero
// and Bytes/Lifetime are the *remaining* bytes and lifetime.
type FlowSpec struct {
	At       sim.Time
	Key      packet.FlowKey
	Bytes    int64
	Lifetime sim.Time
}

// Flows returns the per-flow schedule — standing flows first (all at t=0),
// then Poisson arrivals in increasing time order. It panics on an invalid
// config; check Validate first when the config comes from user input.
func Flows(cfg Config) []FlowSpec {
	rng := sim.NewRand(cfg.Seed)
	return flows(cfg, rng)
}

func flows(cfg Config, rng *sim.Rand) []FlowSpec {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	scale := cfg.LifetimeScale
	if scale == 0 {
		scale = 1
	}
	specs := make([]FlowSpec, 0, cfg.StandingFlows+expectedArrivals(cfg))
	flowID := uint32(1)

	// Standing population: length-biased sizes, uniformly advanced.
	for i := 0; i < cfg.StandingFlows; i++ {
		size := boundedPareto(rng, cfg.ParetoAlpha-lifetimeExp, float64(cfg.MinFlowBytes), float64(cfg.MaxFlowBytes))
		done := rng.Float64() // fraction of the flow already behind us
		life := lifetimeOf(cfg, size, scale)
		specs = append(specs, FlowSpec{
			At:    0,
			Key:   flowKeyFor(flowID),
			Bytes: int64((1-done)*size) + 1,
			//lint:ignore simtime residual lifetimes are milliseconds-to-minutes (« 2^53 ns) and the progress fraction is inherently a float draw
			Lifetime: sim.Time((1 - done) * float64(life)),
		})
		flowID++
	}

	// Fresh arrivals: Poisson process, open-population sizes.
	if cfg.FlowsPerMinute > 0 {
		arrivalMean := 60e9 / cfg.FlowsPerMinute // ns between flow arrivals
		var now float64
		for now < float64(cfg.Duration) {
			now += rng.ExpFloat64() * arrivalMean
			if now >= float64(cfg.Duration) {
				break
			}
			size := boundedPareto(rng, cfg.ParetoAlpha, float64(cfg.MinFlowBytes), float64(cfg.MaxFlowBytes))
			specs = append(specs, FlowSpec{
				At:       sim.Time(now),
				Key:      flowKeyFor(flowID),
				Bytes:    int64(size) + 1,
				Lifetime: lifetimeOf(cfg, size, scale),
			})
			flowID++
		}
	}
	return specs
}

// expectedArrivals bounds the schedule's Poisson arrivals for sizing it
// once: their mean, FlowsPerMinute × Duration, plus five standard
// deviations and a little. A count beyond that bound only grows the
// slice as append would; the draws never depend on it.
func expectedArrivals(cfg Config) int {
	mean := cfg.FlowsPerMinute * cfg.Duration.Seconds() / 60
	return int(mean + 5*math.Sqrt(mean) + 16)
}

// flowKeyFor derives a synthetic but deterministic 5-tuple from the flow
// ordinal. The port pair (SrcPort, DstPort) = (id>>8, id*40503 mod 2^16) is
// unique for ordinals below 2^24, so schedules up to ~16M flows never
// collide on the port pair even when a replay sender rewrites the node IDs.
func flowKeyFor(flowID uint32) packet.FlowKey {
	return packet.FlowKey{
		Src:     packet.NodeID(flowID % 65536),
		Dst:     packet.NodeID((flowID * 2654435761) % 65536),
		SrcPort: uint16(flowID >> 8),
		DstPort: uint16(flowID * 40503),
		Proto:   packet.ProtoTCP,
	}
}

// lifetimeOf spreads a flow's bytes over a lifetime that scales
// sub-linearly with size: mice finish fast, elephants persist with high
// mean rates (heavy hitters).
func lifetimeOf(cfg Config, size, scale float64) sim.Time {
	return sim.Time(scale * 1e6 * math.Pow(size/float64(cfg.MinFlowBytes), lifetimeExp)) // ns
}

// expand materialises a schedule as constant-size packets, each flow's
// emissions spread uniformly over its lifetime, clipped to the window.
func expand(cfg Config, specs []FlowSpec) []Pkt {
	var pkts []Pkt
	for _, s := range specs {
		if s.At >= cfg.Duration {
			continue
		}
		npkts := int(s.Bytes/int64(cfg.MeanPacketBytes)) + 1
		for i := 0; i < npkts; i++ {
			at := float64(s.At) + float64(s.Lifetime)*float64(i)/float64(npkts)
			if at >= float64(cfg.Duration) {
				break
			}
			pkts = append(pkts, Pkt{At: sim.Time(at), Flow: s.Key, Bytes: cfg.MeanPacketBytes})
		}
	}
	sort.Slice(pkts, func(i, j int) bool { return pkts[i].At < pkts[j].At })
	return pkts
}

// Generate materialises the trace, time-sorted. It panics on an invalid
// config; check Validate first when the config comes from user input.
func Generate(cfg Config) []Pkt {
	rng := sim.NewRand(cfg.Seed)
	pkts := expand(cfg, flows(cfg, rng))

	// Thin to the link rate if oversubscribed.
	if cfg.LinkBps > 0 {
		budget := cfg.LinkBps / 8 * cfg.Duration.Seconds()
		var total float64
		for _, p := range pkts {
			total += float64(p.Bytes)
		}
		if total > budget {
			keep := budget / total
			out := pkts[:0]
			for _, p := range pkts {
				if rng.Float64() < keep {
					out = append(out, p)
				}
			}
			pkts = out
		}
	}
	return pkts
}

// boundedPareto samples a bounded Pareto(alpha) on [lo, hi].
func boundedPareto(rng *sim.Rand, alpha, lo, hi float64) float64 {
	u := rng.Float64()
	la := math.Pow(lo, alpha)
	ha := math.Pow(hi, alpha)
	return math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/alpha)
}

// TopFlows returns the flows ranked by total bytes (descending), with their
// byte counts — the ground truth for FPR/FNR evaluation.
type FlowCount struct {
	Flow  packet.FlowKey
	Bytes int64
}

// Aggregate sums bytes per flow over a window of the trace.
func Aggregate(pkts []Pkt, from, to sim.Time) []FlowCount {
	m := make(map[packet.FlowKey]int64)
	for _, p := range pkts {
		if p.At >= from && p.At < to {
			m[p.Flow] += int64(p.Bytes)
		}
	}
	out := make([]FlowCount, 0, len(m))
	for f, b := range m {
		out = append(out, FlowCount{f, b})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bytes != out[j].Bytes {
			return out[i].Bytes > out[j].Bytes
		}
		return out[i].Flow.Hash(0) < out[j].Flow.Hash(0)
	})
	return out
}
