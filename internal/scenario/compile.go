package scenario

import (
	"encoding/json"
	"fmt"

	"cebinae/experiments"
	"cebinae/internal/fleet"
)

// The compiler lowers a validated spec onto the experiments builders.
// Lowering is a pure data mapping — no construction happens until the
// compiled scenario runs — and it targets the exact config structs the
// hand-built Go scenarios use, which is what makes the byte-identity
// differential tests possible: a canonical spec and its Go twin hand the
// runner the same struct, so every downstream byte matches.

// Compiled is a lowered spec: exactly one config pointer (or the Grid
// slice) is populated, matching Spec.Kind.
type Compiled struct {
	Spec     *Spec
	Dumbbell *experiments.Scenario
	Chain    *experiments.ChainConfig
	Backbone *experiments.BackboneConfig
	Graph    *experiments.GraphConfig
	// Grid holds the enumerated cells for tournament and buffer_sweep
	// specs, in canonical generation order.
	Grid []experiments.GridCell

	// What the spec kind decides for a single-config scenario, bound once
	// by Compile (nil for the grid kinds): its runner, the result's report
	// text, and the same text from a checkpointed result.
	run    func() any
	text   func(any) string
	decode func(get experiments.Getter, id string) (string, error)
}

// bind records the runner and renderer of a single-config kind. run reads
// *cfg when called, not when bound, so edits made through the exported
// config pointer after Compile take effect.
func bind[C, R any](c *Compiled, cfg *C, run func(C) R, text func(R) string) {
	c.run = func() any { return run(*cfg) }
	c.text = func(v any) string { return text(v.(R)) }
	c.decode = func(get experiments.Getter, id string) (string, error) {
		var r R
		raw, err := get(id)
		if err != nil {
			return "", err
		}
		if err := json.Unmarshal(raw, &r); err != nil {
			return "", fmt.Errorf("scenario: decode %s: %w", id, err)
		}
		return text(r), nil
	}
}

func qdiscKinds(names []string) []experiments.QdiscKind {
	out := make([]experiments.QdiscKind, len(names))
	for i, n := range names {
		out[i] = experiments.QdiscKind(n)
	}
	return out
}

func lowerGroups(groups []GroupSpec) []experiments.FlowGroup {
	out := make([]experiments.FlowGroup, len(groups))
	for i, g := range groups {
		out[i] = experiments.FlowGroup{CC: g.CC, Count: g.Count, RTT: g.RTT.Time(), StartAt: g.StartAt.Time()}
	}
	return out
}

func lowerPortQdisc(q *PortQdiscSpec) experiments.PortQdisc {
	if q == nil {
		return experiments.PortQdisc{}
	}
	return experiments.PortQdisc{
		Kind:        experiments.QdiscKind(q.Kind),
		BufferBytes: q.BufferBytes,
		CebinaeRTT:  q.CebinaeRTT.Time(),
	}
}

// Compile lowers a validated spec. It validates first, so callers that
// assemble specs programmatically get the same diagnostics as Load.
func Compile(s *Spec) (*Compiled, error) {
	if err := Validate(s); err != nil {
		return nil, err
	}
	c := &Compiled{Spec: s}
	switch s.Kind {
	case "dumbbell":
		d := s.Dumbbell
		sc := experiments.Scenario{
			Name:           s.Name,
			BottleneckBps:  float64(d.Rate),
			BufferBytes:    d.BufferBytes,
			Groups:         lowerGroups(d.Groups),
			Duration:       d.Duration.Time(),
			Qdisc:          experiments.QdiscKind(d.Qdisc),
			MinRTO:         d.MinRTO.Time(),
			WarmupFraction: d.WarmupFraction,
			Seed:           s.Seed,
			SampleInterval: d.SampleInterval.Time(),
		}
		if d.Tau != nil {
			p := experiments.DefaultCebinaeParams(sc)
			p.Tau = *d.Tau
			sc.Params = &p
		}
		c.Dumbbell = &sc
		bind(c, c.Dumbbell, experiments.Run, experiments.Result.Report)
	case "chain":
		ch := s.Chain
		c.Chain = &experiments.ChainConfig{
			Name:          s.Name,
			Hops:          ch.Hops,
			LongFlows:     ch.LongFlows,
			CrossPerHop:   ch.CrossPerHop,
			LongCC:        ch.LongCC,
			CrossCCs:      ch.CrossCCs,
			BottleneckBps: float64(ch.Rate),
			BufferBytes:   ch.BufferBytes,
			LinkDelay:     ch.LinkDelay.Time(),
			AccessDelay:   ch.AccessDelay.Time(),
			Qdisc:         experiments.QdiscKind(ch.Qdisc),
			CebinaeRTT:    ch.CebinaeRTT.Time(),
			Duration:      ch.Duration.Time(),
			Seed:          s.Seed,
		}
		bind(c, c.Chain, experiments.RunChain, experiments.ChainResult.Report)
	case "backbone":
		b := s.Backbone
		scale := map[string]experiments.Scale{
			"quick": experiments.Quick, "medium": experiments.Medium, "full": experiments.Full,
		}[b.Scale]
		cfg := experiments.BackboneTier(b.Flows, scale)
		if b.Qdisc != "" {
			cfg.Qdisc = experiments.QdiscKind(b.Qdisc)
		}
		c.Backbone = &cfg
		bind(c, c.Backbone, experiments.RunBackbone, experiments.BackboneResult.Render)
	case "graph":
		g := s.Graph
		gc := experiments.GraphConfig{
			Name:           s.Name,
			Duration:       g.Duration.Time(),
			WarmupFraction: g.WarmupFraction,
			MinRTO:         g.MinRTO.Time(),
			Seed:           s.Seed,
		}
		for _, sw := range g.Switches {
			gc.Switches = append(gc.Switches, experiments.GraphSwitch{Name: sw.Name})
		}
		for _, l := range g.Links {
			gc.Links = append(gc.Links, experiments.GraphLink{
				A: l.A, B: l.B, RateBps: float64(l.Rate), Delay: l.Delay.Time(),
				QdiscAB: lowerPortQdisc(l.QdiscAB), QdiscBA: lowerPortQdisc(l.QdiscBA),
			})
		}
		for _, h := range g.Hosts {
			gc.Hosts = append(gc.Hosts, experiments.GraphHostGroup{
				Name: h.Name, Count: h.Count, Attach: h.Attach,
				RateBps: float64(h.Rate), Delay: h.Delay.Time(),
				DownQdisc: lowerPortQdisc(h.DownQdisc),
			})
		}
		for _, f := range g.Flows {
			gc.Flows = append(gc.Flows, experiments.GraphFlowGroup{
				From: f.From, To: f.To, CC: f.CC, StartAt: f.StartAt.Time(),
			})
		}
		c.Graph = &gc
		bind(c, c.Graph, experiments.RunGraph, experiments.GraphResult.Report)
	case "tournament":
		t := s.Tournament
		c.Grid = experiments.TournamentConfig{
			Name:          s.Name,
			CCAs:          t.CCAs,
			FlowsPerCCA:   t.FlowsPerCCA,
			BottleneckBps: float64(t.Rate),
			BaseRTT:       t.BaseRTT.Time(),
			RTTRatios:     t.RTTRatios,
			BufferBytes:   t.BufferBytes,
			Qdiscs:        qdiscKinds(t.Qdiscs),
			Duration:      t.Duration.Time(),
			MinRTO:        t.MinRTO.Time(),
			Seed:          s.Seed,
		}.Cells()
	default: // buffer_sweep
		b := s.BufferSweep
		c.Grid = experiments.BufferSweepConfig{
			Name:          s.Name,
			Groups:        lowerGroups(b.Groups),
			BottleneckBps: float64(b.Rate),
			BufferBytes:   b.BufferBytes,
			Qdiscs:        qdiscKinds(b.Qdiscs),
			Duration:      b.Duration.Time(),
			MinRTO:        b.MinRTO.Time(),
			Seed:          s.Seed,
		}.Cells()
	}
	return c, nil
}

// SetShards sets the engine count of a chain or backbone scenario, the
// two kinds whose runners still partition across engines. Every other
// kind runs on one engine, so asking one for shards is a caller bug: it
// panics naming the kind rather than doing nothing.
func (c *Compiled) SetShards(n int) {
	switch {
	case c.Chain != nil:
		c.Chain.Shards = n
	case c.Backbone != nil:
		c.Backbone.Shards = n
	default:
		panic(fmt.Sprintf("scenario: SetShards on a %q scenario: only chain and backbone run sharded", c.Spec.Kind))
	}
}

// RunReport runs the compiled scenario sequentially and returns its
// canonical report text.
func (c *Compiled) RunReport() string {
	if c.Grid != nil {
		return experiments.RunGrid(c.Spec.Name, c.Grid).Report()
	}
	return c.text(c.run())
}

// jobID namespaces a compiled scenario's checkpoint keys.
func (c *Compiled) jobID(prefix string) string { return prefix + "scenario/" + c.Spec.Name }

// Jobs wraps the compiled scenario as fleet jobs: one per grid cell, or
// a single job for the other kinds.
func (c *Compiled) Jobs(prefix string) []fleet.Job {
	id := c.jobID(prefix)
	if c.Grid != nil {
		return experiments.GridJobs(id+"/", c.Grid)
	}
	run := func() (any, error) { return c.run(), nil }
	return []fleet.Job{{ID: id, Desc: c.Spec.Kind + " scenario " + c.Spec.Name, Run: run}}
}

// Render reassembles the checkpointed job values written by Jobs into
// the same report RunReport would print.
func (c *Compiled) Render(prefix string, get experiments.Getter) (string, error) {
	id := c.jobID(prefix)
	if c.Grid != nil {
		return experiments.RenderGrid(c.Spec.Name, id+"/", c.Grid, get)
	}
	return c.decode(get, id)
}

// Section packages the compiled scenario as one bench-report section.
func (c *Compiled) Section(prefix string) experiments.BenchSection {
	return experiments.BenchSection{
		ID:     "scenario/" + c.Spec.Name,
		Desc:   c.Spec.Kind + " scenario " + c.Spec.Name,
		Jobs:   c.Jobs(prefix),
		Render: func(get experiments.Getter) (string, error) { return c.Render(prefix, get) },
	}
}
