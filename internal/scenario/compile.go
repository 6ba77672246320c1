package scenario

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"

	"cebinae/experiments"
)

// The compiler lowers a validated spec onto the experiments builders.
// Lowering is a pure data mapping — no construction happens until the
// compiled scenario runs — and it targets the exact config structs the
// hand-built Go scenarios use, which is what makes the byte-identity
// differential tests possible: a canonical spec and its Go twin hand the
// runner the same struct, so every downstream byte matches. The grid
// kinds lower straight to their cells. cebinae-sim and cebinae-sweep
// build specs from their flags and compile them here too, so a flag and a
// spec file share one lowering and one set of diagnostics.

// Compiled is a lowered spec: exactly one config pointer (or the Grid
// slice) is populated, matching Spec.Kind. Section is how it runs.
type Compiled struct {
	Spec     *Spec
	Dumbbell *experiments.Scenario
	Chain    *experiments.ChainConfig
	Backbone *experiments.BackboneConfig
	Graph    *experiments.GraphConfig
	// Grid holds the enumerated cells for tournament and buffer_sweep
	// specs, in canonical generation order.
	Grid []experiments.GridCell
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
	case "backbone":
		b := s.Backbone
		scale, _ := experiments.ParseScale(b.Scale) // Validate admitted only quick, medium or full
		cfg := experiments.BackboneTier(b.Flows, scale)
		if b.Qdisc != "" {
			cfg.Qdisc = experiments.QdiscKind(b.Qdisc)
		}
		if s.Seed != 0 {
			cfg.Trace.Seed = s.Seed
		}
		c.Backbone = &cfg
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
	case "tournament":
		c.Grid = tournamentCells(s.Name, s.Seed, s.Tournament)
	default: // buffer_sweep
		c.Grid = bufferSweepCells(s.Name, s.Seed, s.BufferSweep)
	}
	return c, nil
}

// tournamentCells enumerates the CCA tournament matrix in deterministic
// order: discipline, then pair (i ≤ j in ccas order, self-pairs included as
// the intra-CCA RTT-fairness baseline), then RTT ratio, then buffer depth.
// The first group runs at base_rtt, the second at base_rtt × ratio.
func tournamentCells(name string, seed uint64, t *TournamentSpec) []experiments.GridCell {
	var cells []experiments.GridCell
	for _, q := range t.Qdiscs {
		for i, a := range t.CCAs {
			for _, b := range t.CCAs[i:] {
				for _, ratio := range t.RTTRatios {
					for _, buf := range t.BufferBytes {
						//lint:ignore simtime RTT ratios scale bounded base RTTs (« 2^53 ns); sub-ns rounding of a config input is immaterial
						rtt2 := experiments.SimTime(float64(t.BaseRTT.Time()) * ratio)
						id := fmt.Sprintf("%s/%s-%s/r%g/b%d", q, a, b, ratio, buf)
						cells = append(cells, experiments.GridCell{
							ID:    id,
							Label: fmt.Sprintf("%s vs %s, RTT ×%g, %d B buffer, %s", a, b, ratio, buf, q),
							Scenario: experiments.Scenario{
								Name:          name + "/" + id,
								BottleneckBps: float64(t.Rate),
								BufferBytes:   buf,
								Groups: []experiments.FlowGroup{
									{CC: a, Count: t.FlowsPerCCA, RTT: t.BaseRTT.Time()},
									{CC: b, Count: t.FlowsPerCCA, RTT: rtt2},
								},
								Duration: t.Duration.Time(),
								Qdisc:    experiments.QdiscKind(q),
								MinRTO:   t.MinRTO.Time(),
								Seed:     seed,
							},
						})
					}
				}
			}
		}
	}
	return cells
}

// bufferSweepCells enumerates the buffer sweep in deterministic order:
// discipline, then buffer depth, every cell the one flow mix.
func bufferSweepCells(name string, seed uint64, b *BufferSweepSpec) []experiments.GridCell {
	var cells []experiments.GridCell
	groups := lowerGroups(b.Groups)
	for _, q := range b.Qdiscs {
		for _, buf := range b.BufferBytes {
			id := fmt.Sprintf("%s/b%d", q, buf)
			cells = append(cells, experiments.GridCell{
				ID:    id,
				Label: fmt.Sprintf("%d B buffer, %s", buf, q),
				Scenario: experiments.Scenario{
					Name:          name + "/" + id,
					BottleneckBps: float64(b.Rate),
					BufferBytes:   buf,
					Groups:        groups,
					Duration:      b.Duration.Time(),
					Qdisc:         experiments.QdiscKind(q),
					MinRTO:        b.MinRTO.Time(),
					Seed:          seed,
				},
			})
		}
	}
	return cells
}

// File is one spec file LoadFiles matched, compiled.
type File struct {
	Path string
	*Compiled
}

// LoadFiles loads and compiles every spec file a comma list of glob
// patterns (a -scenario flag) matches: pattern by pattern, each pattern's
// matches in sorted order. A pattern that matches nothing is an error.
func LoadFiles(patterns string) ([]File, error) {
	var files []File
	for _, pat := range strings.Split(patterns, ",") {
		pat = strings.TrimSpace(pat)
		matches, err := filepath.Glob(pat)
		if err != nil || len(matches) == 0 {
			return nil, fmt.Errorf("-scenario pattern %q matches no files", pat)
		}
		sort.Strings(matches)
		for _, path := range matches {
			spec, err := Load(path)
			if err != nil {
				return nil, err
			}
			c, err := Compile(spec)
			if err != nil {
				return nil, err
			}
			files = append(files, File{path, c})
		}
	}
	return files, nil
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

// Section packages the compiled scenario as one report section, id
// scenario/<name>: one cell per grid cell for the grid kinds, one cell
// otherwise. Its jobs read the exported config when they run, so edits
// made through it after Compile reach the run.
func (c *Compiled) Section(prefix string) experiments.BenchSection {
	id, desc := "scenario/"+c.Spec.Name, c.Spec.Kind+" scenario "+c.Spec.Name
	switch {
	case c.Dumbbell != nil:
		return experiments.NewSection(prefix, id, desc,
			[]experiments.Cell[experiments.Result]{{Run: func() experiments.Result { return experiments.Run(*c.Dumbbell) }}},
			experiments.Only(experiments.Result.Report))
	case c.Chain != nil:
		return experiments.NewSection(prefix, id, desc,
			[]experiments.Cell[experiments.ChainResult]{{Run: func() experiments.ChainResult { return experiments.RunChain(*c.Chain) }}},
			experiments.Only(experiments.ChainResult.Report))
	case c.Backbone != nil:
		return experiments.NewSection(prefix, id, desc,
			[]experiments.Cell[experiments.BackboneResult]{{Run: func() experiments.BackboneResult { return experiments.RunBackbone(*c.Backbone) }}},
			experiments.Only(experiments.BackboneResult.Render))
	case c.Graph != nil:
		return experiments.NewSection(prefix, id, desc,
			[]experiments.Cell[experiments.GraphResult]{{Run: func() experiments.GraphResult { return experiments.RunGraph(*c.Graph) }}},
			experiments.Only(experiments.GraphResult.Report))
	}
	return experiments.GridSection(prefix, id, desc, c.Grid, func(rs []experiments.Result) string {
		return experiments.RenderGrid(c.Spec.Name, c.Grid, rs)
	})
}
