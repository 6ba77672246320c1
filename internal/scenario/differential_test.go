package scenario

import (
	"testing"

	"cebinae/experiments"
)

// These tests pin the format's core contract: a canonical spec file
// compiles to the same construction as the hand-built Go scenario it
// mirrors, so the two produce byte-identical reports. Any drift between
// the declarative and programmatic paths (defaulting, unit parsing,
// lowering, construction order) breaks these bytes.

func mustLoad(t *testing.T, name string) *Spec {
	t.Helper()
	s, err := Load(scenarioPath(t, name))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func runSpec(t *testing.T, s *Spec) string {
	t.Helper()
	c, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	return runSection(t, c.Section(""))
}

// TestDifferentialDumbbell compares dumbbell.json against the hand-built
// determinism scenario (the experiments package's own differential
// workload).
func TestDifferentialDumbbell(t *testing.T) {
	goBuilt := experiments.Scenario{
		Name:          "determinism",
		BottleneckBps: 50e6,
		BufferBytes:   1 << 20,
		Groups: []experiments.FlowGroup{
			{CC: "newreno", Count: 3, RTT: experiments.Millis(20)},
			{CC: "cubic", Count: 2, RTT: experiments.Millis(60)},
			{CC: "newreno", Count: 1, RTT: experiments.Millis(40), StartAt: experiments.Seconds(1)},
		},
		Duration:       experiments.Seconds(4),
		Qdisc:          experiments.Cebinae,
		Seed:           7,
		SampleInterval: experiments.Millis(200),
	}
	want := experiments.Run(goBuilt).Report()
	if got := runSpec(t, mustLoad(t, "dumbbell.json")); got != want {
		t.Errorf("spec-compiled report differs from Go-built\n--- go\n%s--- spec\n%s", want, got)
	}
}

// TestDifferentialChain compares chain.json against
// experiments.CanonicalChain.
func TestDifferentialChain(t *testing.T) {
	want := experiments.RunChain(experiments.CanonicalChain(experiments.Cebinae, experiments.Seconds(2), 1)).Report()
	if got := runSpec(t, mustLoad(t, "chain.json")); got != want {
		t.Errorf("spec-compiled report differs from Go-built\n--- go\n%s--- spec\n%s", want, got)
	}
}

// TestDifferentialBackbone compares backbone-1e5.json against
// experiments.BackboneTier(100000, ·). The shipped file declares the
// full 400 ms horizon; the test dials both sides to the quick scale so
// the comparison still exercises the exact compile path within the test
// budget.
func TestDifferentialBackbone(t *testing.T) {
	spec := mustLoad(t, "backbone-1e5.json")
	spec.Backbone.Scale = "quick"
	want := experiments.RunBackbone(experiments.BackboneTier(100000, experiments.Quick)).Render()
	if got := runSpec(t, spec); got != want {
		t.Errorf("spec-compiled report differs from Go-built\n--- go\n%s--- spec\n%s", want, got)
	}
}

// TestCompileBackboneSeed: a backbone spec's seed seeds the replayed
// trace; without one, the tier's own seed stands, as in backbone-1e5.json.
func TestCompileBackboneSeed(t *testing.T) {
	for _, tc := range []struct {
		seed, want uint64
	}{{0, experiments.BackboneTier(100000, experiments.Full).Trace.Seed}, {7, 7}} {
		spec := mustLoad(t, "backbone-1e5.json")
		spec.Seed = tc.seed
		c, err := Compile(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.Backbone.Trace.Seed; got != tc.want {
			t.Errorf("spec seed %d: trace seed %d, want %d", tc.seed, got, tc.want)
		}
	}
}
