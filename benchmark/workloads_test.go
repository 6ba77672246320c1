package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"sort"
	"strings"
	"testing"
)

// testScale shrinks every horizon to a tenth so each workload runs
// in-process in a fraction of a second. Shorter does not work: the 1 G
// dumbbells spend their first simulated second in an initial RTO, the
// fast-forward error bound is a long-horizon property, and the profiled
// run needs a few 10 ms samples.
const testScale = 0.1

func testHarness(t *testing.T) *harness {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	return &harness{root: root, scale: testScale, driverMs: 1, log: io.Discard, inProcess: true}
}

// bypassed names, per bypass workload, the layer it must never enter.
var bypassed = map[string]string{"dumbbell_fifo_1g": "core.cpu_pct", "backbone_replay_1e5": "tcp.cpu_pct"}

// undefinedOn names the one workload on which an end-to-end metric does
// not exist: the report's rows carry no event count, the backbone result
// no fairness index.
var undefinedOn = map[string]string{"events_per_mb": "table2_report_quick", "jfi": "backbone_replay_1e5"}

// TestEveryWorkloadEmitsEveryMetric runs each workload end to end —
// untraced, profiled, and against its oracle — and requires every metric
// BENCHMARK.json names, no correctness fault, and a profile attribution
// that accounts for all of its samples.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	h := testHarness(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			wr := &workloadRun{Workload: w.name, Seed: 1}
			h.untraced(wr, func(n int, _ float64) bool { return n >= 1 })
			h.traced(wr)
			if wr.Failed != 0 {
				t.Fatalf("%d of %d runs failed: %v", wr.Failed, wr.Attempted, wr.Faults)
			}
			for _, d := range e2eDefs {
				s, ok := wr.E2E[d.name]
				if undefinedOn[d.name] == w.name {
					if ok {
						t.Errorf("end-to-end metric %s is not defined here, got %+v", d.name, s)
					}
					continue
				}
				if !ok || s.N == 0 || s.Value == 0 || math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
					t.Errorf("end-to-end metric %s: %+v", d.name, s)
				}
			}
			for _, d := range cpuDefs {
				if _, ok := wr.Layer[d.name]; !ok {
					t.Errorf("traced metric %s missing", d.name)
				}
			}
			for _, d := range layerDefs {
				if v := fillLayer(wr.Layer)[d.name]; math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("per-layer metric %s = %v", d.name, v)
				}
			}
			sum := 0.0
			for _, d := range cpuDefs {
				if !strings.HasPrefix(d.name, "trace.") {
					sum += wr.Layer[d.name]
				}
			}
			if math.Abs(sum-100) > 1 {
				t.Errorf("profile shares sum to %.2f%%, want 100 ± 1", sum)
			}
			if wr.Layer["experiments.events"] == 0 && w.section == "" {
				t.Error("no events counted")
			}
			// The bypass workloads really bypass: that is what makes them
			// the control side of a core or tcp optimisation.
			if layer, ok := bypassed[w.name]; ok && wr.Layer[layer] >= 1 {
				t.Errorf("%s = %.2f, want < 1", layer, wr.Layer[layer])
			}
		})
	}
}

// TestContractOutput checks the one line a single-workload run prints:
// exactly the four keys, and exactly the end-to-end metrics untraced and
// the per-layer metrics — layer drivers included — traced.
func TestContractOutput(t *testing.T) {
	h := testHarness(t)
	for traced, defs := range map[bool][]metricDef{false: contractDefs, true: layerDefs} {
		var stdout, stderr bytes.Buffer
		if code := h.contractRun("dumbbell_fifo_1g", 7, 0.01, traced, &stdout, &stderr); code != 0 {
			t.Fatalf("traced=%v: exit %d: %s", traced, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var raw map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
			t.Fatal(err)
		}
		var keys []string
		for k := range raw {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if strings.Join(keys, ",") != "attempted,correct,failed,metrics" {
			t.Fatalf("traced=%v: keys %v", traced, keys)
		}
		var res contractResult
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("traced=%v: %+v\n%s", traced, res, stderr.String())
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("traced=%v: %d metrics, want %d", traced, len(res.Metrics), len(defs))
		}
		for _, d := range defs {
			m, ok := res.Metrics[d.name]
			if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("traced=%v: metric %s: %+v", traced, d.name, m)
			}
			if !traced && m.Value == 0 {
				t.Errorf("end-to-end metric %s is 0", d.name)
			}
		}
		// Every layer driver (here with 1 ms batches) must produce a reading.
		for _, d := range driverDefs {
			if traced && !(res.Metrics[d.name].Value > 0) {
				t.Errorf("driver metric %s = %v", d.name, res.Metrics[d.name].Value)
			}
		}
	}
	var stdout, stderr bytes.Buffer
	if code := h.contractRun("no_such_workload", 1, 1, false, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Errorf("unknown workload: exit %d, output %q", code, stdout.String())
	}
}

// TestSameSeedSameDigest: the simulator is deterministic, so one seed
// gives one report — the property every exact comparison rests on.
func TestSameSeedSameDigest(t *testing.T) {
	h := testHarness(t)
	a := h.spawn(childArgs{Workload: "dumbbell_cebinae_1g", Seed: 42})
	b := h.spawn(childArgs{Workload: "dumbbell_cebinae_1g", Seed: 42})
	c := h.spawn(childArgs{Workload: "dumbbell_cebinae_1g", Seed: 43})
	if a.failed() || a.Digest == "" || a.Digest != b.Digest {
		t.Fatalf("seed 42 twice: %q vs %q (%s)", a.Digest, b.Digest, a.Err)
	}
	if c.Digest == a.Digest {
		t.Fatal("seeds 42 and 43 gave the same report: -seed does not reach the workload")
	}
}
