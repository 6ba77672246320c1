package main

import (
	"bytes"
	"strings"
	"testing"
)

func fakeRun(wall float64, failed int, digest string) savedRun {
	run := savedRun{Manifest: manifest{Seed: 1, Repeats: 5}}
	for _, w := range workloads {
		wr := &workloadRun{Workload: w.name, Attempted: 7, Failed: failed, Digest: digest, E2E: map[string]stat{}}
		for _, d := range e2eDefs {
			vals := []float64{wall * 0.99, wall, wall * 1.01, wall * 1.02, wall * 0.98}
			wr.E2E[d.name] = summarise(vals, d)
		}
		run.Workloads = append(run.Workloads, wr)
	}
	return run
}

func TestCompareWithItselfIsAllSame(t *testing.T) {
	_, spec := mustSpec(t)
	var out bytes.Buffer
	a := fakeRun(3, 0, "d1")
	if compareRuns(spec, a, a, &out) {
		t.Fatalf("a run regressed against itself:\n%s", out.String())
	}
	for _, bad := range []string{verdictWorse, verdictBetter, verdictUnresolved, "drift"} {
		if strings.Contains(out.String(), bad) {
			t.Fatalf("self-comparison reports %q:\n%s", bad, out.String())
		}
	}
	if n := strings.Count(out.String(), verdictSame); n != len(workloads)*(len(e2eDefs)+1) {
		t.Fatalf("%d same verdicts, want %d:\n%s", n, len(workloads)*(len(e2eDefs)+1), out.String())
	}
}

// TestCompareHoldsWhatTheFileCannotSay: the simulated metrics are held to
// their absolute bounds, not to BENCHMARK.json's cross-seed ones, set-up
// time has its 50 ms floor, and a digest change alone is no regression.
func TestCompareHoldsWhatTheFileCannotSay(t *testing.T) {
	_, spec := mustSpec(t)
	set := func(run savedRun, metric string, v float64) savedRun {
		for _, wr := range run.Workloads {
			for _, d := range e2eDefs {
				if d.name == metric {
					wr.E2E[metric] = summarise([]float64{v, v, v, v, v}, d)
				}
			}
		}
		return run
	}
	for _, c := range []struct {
		metric    string
		a, b      float64
		regressed bool
	}{
		{"goodput_frac", 0.94, 0.92, true}, // −2 %: inside the file's relative bound, outside 0.01 absolute
		{"goodput_frac", 0.94, 0.935, false},
		{"jfi", 0.99, 0.97, true},
		{"events_per_mb", 13000, 13100, true}, // +0.8 % against 0.5 %
		{"setup_s", 0.002, 0.003, false},      // +50 % but 1 ms
		{"setup_s", 0.002, 0.062, true},
		{"allocs_k", 10, 10.9, false}, // +9 % but under 1 k
	} {
		var out bytes.Buffer
		a, b := set(fakeRun(3, 0, "d1"), c.metric, c.a), set(fakeRun(3, 0, "d1"), c.metric, c.b)
		if got := compareRuns(spec, a, b, &out); got != c.regressed {
			t.Errorf("%s %v → %v: regressed = %v, want %v\n%s", c.metric, c.a, c.b, got, c.regressed, out.String())
		}
	}
	var out bytes.Buffer
	if compareRuns(spec, fakeRun(3, 0, "d1"), fakeRun(3, 0, "d2"), &out) || !strings.Contains(out.String(), "drift") {
		t.Errorf("a digest change alone must print drift and not regress:\n%s", out.String())
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	_, spec := mustSpec(t)
	var out bytes.Buffer
	if !compareRuns(spec, fakeRun(3, 0, "d1"), fakeRun(4.5, 0, "d2"), &out) {
		t.Fatalf("a 50%% slowdown passed:\n%s", out.String())
	}
	if !strings.Contains(out.String(), verdictWorse) || !strings.Contains(out.String(), "drift") {
		t.Fatalf("missing worse/drift:\n%s", out.String())
	}
	out.Reset()
	if !compareRuns(spec, fakeRun(3, 0, "d1"), fakeRun(3, 1, "d1"), &out) {
		t.Fatalf("a higher failed_frac passed:\n%s", out.String())
	}
}

func TestJudge(t *testing.T) {
	a := []float64{10, 10, 10, 10, 10}
	for _, c := range []struct {
		name   string
		b      []float64
		better string
		want   string
	}{
		{"identical", a, "lower", verdictSame},
		{"5% slower within 10%", []float64{10.5, 10.5, 10.4, 10.6, 10.5}, "lower", verdictSame},
		{"20% slower", []float64{12, 12.1, 11.9, 12, 12}, "lower", verdictWorse},
		{"20% faster", []float64{8, 8.1, 7.9, 8, 8}, "lower", verdictBetter},
		{"noise wider than the bound", []float64{8, 13, 10, 15, 6}, "lower", verdictUnresolved},
		{"every pair better despite noise", []float64{5, 9, 6, 8.5, 4}, "lower", verdictBetter},
		{"20% less of a higher-is-better metric", []float64{8, 8, 8, 8, 8}, "higher", verdictWorse},
	} {
		if got, _, _ := judge(a, c.b, c.better, 0.10); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestIQRShareMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) = [2.75, 5.5, 8.25]
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := iqrShare(vals), (8.25-2.75)/5.5; got < want-1e-12 || got > want+1e-12 {
		t.Fatalf("iqrShare = %v, want %v", got, want)
	}
}
