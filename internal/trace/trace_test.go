package trace

import (
	"testing"

	"cebinae/internal/sim"
)

func smallConfig(seed uint64) Config {
	cfg := DefaultConfig()
	cfg.Duration = sim.Duration(100e6) // 100 ms
	cfg.FlowsPerMinute = 60000
	cfg.Seed = seed
	return cfg
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(smallConfig(1))
	b := Generate(smallConfig(1))
	if len(a) != len(b) {
		t.Fatalf("non-deterministic lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace diverges at %d", i)
		}
	}
	c := Generate(smallConfig(2))
	if len(c) == len(a) {
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds must give different traces")
		}
	}
}

func TestGenerateTimeSortedAndBounded(t *testing.T) {
	cfg := smallConfig(3)
	pkts := Generate(cfg)
	if len(pkts) == 0 {
		t.Fatal("empty trace")
	}
	for i := 1; i < len(pkts); i++ {
		if pkts[i].At < pkts[i-1].At {
			t.Fatalf("not time sorted at %d", i)
		}
	}
	for _, p := range pkts {
		if p.At < 0 || p.At >= cfg.Duration {
			t.Fatalf("packet outside trace window: %v", p.At)
		}
		if p.Bytes <= 0 {
			t.Fatalf("non-positive packet size")
		}
	}
}

func TestFlowChurnMatchesRate(t *testing.T) {
	cfg := smallConfig(4)
	pkts := Generate(cfg)
	flows := map[uint64]bool{}
	for _, p := range pkts {
		flows[p.Flow.Hash(0)] = true
	}
	// 60k flows/min over 100 ms ⇒ ≈100 arrivals; generator may thin but
	// the order of magnitude must hold.
	if len(flows) < 30 || len(flows) > 300 {
		t.Fatalf("flow count %d far from expected ≈100", len(flows))
	}
}

func TestHeavyTailSkew(t *testing.T) {
	cfg := smallConfig(5)
	cfg.Duration = sim.Duration(500e6)
	pkts := Generate(cfg)
	agg := Aggregate(pkts, 0, cfg.Duration)
	if len(agg) < 10 {
		t.Skip("trace too small for skew check")
	}
	var total, top10 int64
	for i, fc := range agg {
		total += fc.Bytes
		if i < len(agg)/10 {
			top10 += fc.Bytes
		}
	}
	// Heavy tail: the top decile of flows should carry well over half of
	// the bytes.
	if float64(top10) < 0.5*float64(total) {
		t.Fatalf("insufficient skew: top 10%% flows carry %.1f%% of bytes", 100*float64(top10)/float64(total))
	}
}

func TestAggregateWindowing(t *testing.T) {
	pkts := []Pkt{
		{At: 10, Bytes: 100},
		{At: 20, Bytes: 200},
		{At: 30, Bytes: 300},
	}
	for i := range pkts {
		pkts[i].Flow.SrcPort = uint16(i) // distinct flows
	}
	agg := Aggregate(pkts, 15, 30)
	if len(agg) != 1 || agg[0].Bytes != 200 {
		t.Fatalf("window [15,30) should catch only the middle packet: %+v", agg)
	}
}

func TestAggregateSortsDescending(t *testing.T) {
	cfg := smallConfig(6)
	pkts := Generate(cfg)
	agg := Aggregate(pkts, 0, cfg.Duration)
	for i := 1; i < len(agg); i++ {
		if agg[i].Bytes > agg[i-1].Bytes {
			t.Fatal("aggregate not sorted by bytes descending")
		}
	}
}

func TestLinkRateThinning(t *testing.T) {
	cfg := smallConfig(7)
	cfg.LinkBps = 1e6 // absurdly slow link forces thinning
	pkts := Generate(cfg)
	var total float64
	for _, p := range pkts {
		total += float64(p.Bytes)
	}
	budget := cfg.LinkBps / 8 * cfg.Duration.Seconds()
	if total > budget*1.3 {
		t.Fatalf("thinning failed: %v bytes vs budget %v", total, budget)
	}
}

func TestConfigValidate(t *testing.T) {
	mutate := func(f func(*Config)) Config {
		cfg := DefaultConfig()
		f(&cfg)
		return cfg
	}
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"default", DefaultConfig(), true},
		{"zero duration", mutate(func(c *Config) { c.Duration = 0 }), false},
		{"negative duration", mutate(func(c *Config) { c.Duration = -1 }), false},
		{"zero flow rate", mutate(func(c *Config) { c.FlowsPerMinute = 0 }), false},
		{"negative flow rate", mutate(func(c *Config) { c.FlowsPerMinute = -5 }), false},
		{"zero rate with standing flows", mutate(func(c *Config) { c.FlowsPerMinute = 0; c.StandingFlows = 10 }), true},
		{"zero min flow bytes", mutate(func(c *Config) { c.MinFlowBytes = 0 }), false},
		{"negative min flow bytes", mutate(func(c *Config) { c.MinFlowBytes = -400 }), false},
		{"max below min", mutate(func(c *Config) { c.MaxFlowBytes = c.MinFlowBytes - 1 }), false},
		{"max equals min", mutate(func(c *Config) { c.MaxFlowBytes = c.MinFlowBytes }), true},
		{"zero packet bytes", mutate(func(c *Config) { c.MeanPacketBytes = 0 }), false},
		{"zero alpha", mutate(func(c *Config) { c.ParetoAlpha = 0 }), false},
		{"alpha below lifetime exponent with standing flows", mutate(func(c *Config) { c.ParetoAlpha = 0.5; c.StandingFlows = 10 }), false},
		{"alpha below lifetime exponent without standing flows", mutate(func(c *Config) { c.ParetoAlpha = 0.5 }), true},
		{"negative standing flows", mutate(func(c *Config) { c.StandingFlows = -1 }), false},
		{"negative lifetime scale", mutate(func(c *Config) { c.LifetimeScale = -2 }), false},
		{"zero link rate", mutate(func(c *Config) { c.LinkBps = 0 }), true},
		{"negative link rate", mutate(func(c *Config) { c.LinkBps = -1 }), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.ok && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
}

func TestGeneratePanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Generate accepted MinFlowBytes=0")
		}
	}()
	cfg := smallConfig(1)
	cfg.MinFlowBytes = 0
	Generate(cfg)
}

func TestFlowsMatchesGenerate(t *testing.T) {
	cfg := smallConfig(8)
	cfg.LinkBps = 0 // disable thinning so the expansion is exact
	want := Generate(cfg)
	got := expand(cfg, Flows(cfg))
	if len(want) != len(got) {
		t.Fatalf("expansion of Flows gives %d packets, Generate gives %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("schedule expansion diverges from Generate at %d: %+v vs %+v", i, got[i], want[i])
		}
	}
}

func TestFlowsScheduleShape(t *testing.T) {
	cfg := smallConfig(9)
	specs := Flows(cfg)
	if len(specs) == 0 {
		t.Fatal("empty schedule")
	}
	seen := map[uint64]bool{}
	for i, s := range specs {
		if i > 0 && s.At < specs[i-1].At {
			t.Fatalf("schedule not time sorted at %d", i)
		}
		if s.At < 0 || s.At >= cfg.Duration {
			t.Fatalf("arrival outside window: %v", s.At)
		}
		if s.Bytes <= 0 || s.Lifetime < 0 {
			t.Fatalf("degenerate spec %+v", s)
		}
		h := s.Key.Hash(0)
		if seen[h] {
			t.Fatalf("duplicate flow key at %d: %v", i, s.Key)
		}
		seen[h] = true
	}
}

func TestStandingFlows(t *testing.T) {
	cfg := smallConfig(10)
	cfg.StandingFlows = 5000
	specs := Flows(cfg)
	standing := 0
	for _, s := range specs {
		if s.At == 0 {
			standing++
		}
	}
	if standing < cfg.StandingFlows {
		t.Fatalf("only %d standing flows of %d requested", standing, cfg.StandingFlows)
	}
	// Length-biased sampling must skew the standing population heavier
	// than the open (arrival) population: compare mean remaining size
	// against the open population's mean full size — the bias factor
	// (alpha vs alpha-0.55 tail) overwhelms the uniform progress discount.
	var standingBytes, openBytes, openN float64
	for i, s := range specs {
		if i < cfg.StandingFlows {
			standingBytes += float64(s.Bytes)
		} else {
			openBytes += float64(s.Bytes)
			openN++
		}
	}
	if openN == 0 {
		t.Skip("no fresh arrivals in window")
	}
	if standingBytes/float64(cfg.StandingFlows) < openBytes/openN {
		t.Fatalf("standing flows not length-biased: mean %v vs open mean %v",
			standingBytes/float64(cfg.StandingFlows), openBytes/openN)
	}
	// Determinism of the full schedule.
	again := Flows(cfg)
	for i := range specs {
		if specs[i] != again[i] {
			t.Fatalf("schedule non-deterministic at %d", i)
		}
	}
}

func TestLifetimeScaleStretchesLifetimes(t *testing.T) {
	base := smallConfig(11)
	stretched := base
	stretched.LifetimeScale = 50
	a, b := Flows(base), Flows(stretched)
	if len(a) != len(b) {
		t.Fatalf("LifetimeScale changed the schedule length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].At != b[i].At || a[i].Bytes != b[i].Bytes {
			t.Fatalf("LifetimeScale perturbed arrivals or sizes at %d", i)
		}
		if a[i].Lifetime > 0 && b[i].Lifetime < 40*a[i].Lifetime {
			t.Fatalf("lifetime not stretched at %d: %v vs %v", i, a[i].Lifetime, b[i].Lifetime)
		}
	}
}

func TestBoundedParetoRange(t *testing.T) {
	rng := sim.NewRand(1)
	for i := 0; i < 100000; i++ {
		v := boundedPareto(rng, 1.2, 400, 1<<30)
		if v < 400*0.999 || v > float64(int64(1)<<30)*1.001 {
			t.Fatalf("bounded Pareto out of range: %v", v)
		}
	}
}

// TestFlowsSizedOnce: the schedule is sized up front from the standing
// population and the expected arrivals, so building one — here a
// 10⁴-flow standing population plus ≈ 7 000 arrivals — allocates its
// slice once instead of regrowing it.
func TestFlowsSizedOnce(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StandingFlows = 10_000
	cfg.LifetimeScale = 5
	var specs []FlowSpec
	allocs := testing.AllocsPerRun(1, func() { specs = Flows(cfg) })
	if allocs > 2 {
		t.Fatalf("Flows allocated %.0f times for %d specs, want at most 2 (generator, slice)", allocs, len(specs))
	}
	if arrivals := len(specs) - cfg.StandingFlows; arrivals < 6000 {
		t.Fatalf("only %d arrivals in 1 s at %v flows/min", arrivals, cfg.FlowsPerMinute)
	}
}
