package main

import (
	"regexp"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func mustSpec(t *testing.T) (string, benchSpec) {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	return root, spec
}

// TestSpecMatchesHarness keeps BENCHMARK.json and the code from drifting
// apart: the file lists exactly the workloads and metrics the harness
// emits, under the same names, units and directions.
func TestSpecMatchesHarness(t *testing.T) {
	_, spec := mustSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: file %q, harness %q", i, spec.Workloads[i].Name, w.name)
		}
		if n := len(spec.Workloads[i].Why); n == 0 || n > 200 {
			t.Errorf("workload %s: why has %d characters", w.name, n)
		}
	}
	same := func(kind string, file []metricSpec, defs []metricDef) {
		if len(file) != len(defs) {
			t.Fatalf("%s: file lists %d metrics, harness emits %d", kind, len(file), len(defs))
		}
		for i, d := range defs {
			f := file[i]
			if f.Name != d.name || f.Unit != d.unit || f.Better != d.better {
				t.Errorf("%s %d: file {%s %s %s}, harness {%s %s %s}", kind, i, f.Name, f.Unit, f.Better, d.name, d.unit, d.better)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, contractDefs)
	same("per_layer", spec.PerLayer, layerDefs)
	// What the file cannot carry, the harness must: a metric outside the
	// file, or judged on its own bounds, has one.
	for _, d := range e2eDefs {
		if (d.harnessOnly || d.simulated) && d.rel == 0 && d.abs == 0 {
			t.Errorf("%s has no bound anywhere", d.name)
		}
		if d.harnessOnly && !d.simulated {
			t.Errorf("%s: only a metric that repeats exactly can do without the file's bound", d.name)
		}
	}
}

// TestSpecWithinContract checks the limits the benchmark driver enforces
// before it makes a single run.
func TestSpecWithinContract(t *testing.T) {
	_, spec := mustSpec(t)
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", spec.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range spec.Workloads {
		name(w.Name)
	}
	setup := false
	for _, m := range spec.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v, want (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower"
	}
	if !setup {
		t.Error("no setup_s metric with unit s, better lower")
	}
	for _, m := range spec.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", m.Name)
		}
	}
}
