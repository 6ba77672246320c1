package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of one (workload, end-to-end metric) pair.
const (
	verdictSame       = "same"
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares a metric's repeats in run B against run A. Both runs
// used the same seeds, so repeat i of B is paired with repeat i of A: the
// seed's own effect cancels in each ratio and what is left is the change
// plus host noise. worse is the share by which the median ratio moved in
// the bad direction; spread is the ratios' interquartile distance as a
// share of their median, over √2 — a ratio carries both sides' noise, and
// the spread that matters is one side's own run-to-run spread. A change
// inside the bound is "same" and one beyond it "worse" or "better" —
// unless the spread is wider than the bound, which makes the pair
// unresolved, except when every single pair reads better.
func judge(a, b []float64, better string, bound float64) (verdict string, worse, spread float64) {
	n := min(len(a), len(b))
	if n == 0 {
		return verdictUnresolved, 0, 0
	}
	ratios := make([]float64, 0, n)
	allBetter := true
	for i := 0; i < n; i++ {
		if a[i] == 0 {
			continue
		}
		r := b[i] / a[i]
		if better == "higher" {
			r = 2 - r // mirror, so that above 1 is always worse
		}
		allBetter = allBetter && r < 1
		ratios = append(ratios, r)
	}
	if len(ratios) == 0 {
		return verdictUnresolved, 0, 0
	}
	worse, spread = median(ratios)-1, iqrShare(ratios)/math.Sqrt2
	switch {
	case worse < -bound && (allBetter || spread <= bound):
		return verdictBetter, worse, spread
	case spread > bound:
		return verdictUnresolved, worse, spread
	case worse > bound:
		return verdictWorse, worse, spread
	case worse < -bound:
		return verdictBetter, worse, spread
	}
	return verdictSame, worse, spread
}

func loadRun(path string) (savedRun, error) {
	var r savedRun
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compareFiles judges every (workload, end-to-end metric) pair of two
// saved runs — by BENCHMARK.json's bound where the file has one, by the
// harness's own for what the file cannot say (metricDef) — and exits
// non-zero when any is worse or a workload fails more often than before.
func compareFiles(spec benchSpec, pathA, pathB string, stdout, stderr io.Writer) int {
	a, errA := loadRun(pathA)
	b, errB := loadRun(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if compareRuns(spec, a, b, stdout) {
		return 1
	}
	return 0
}

// compareRuns prints the comparison and reports whether B regressed. A
// changed report digest prints a drift row and does not count as a
// regression by itself: a change that means to alter simulated behaviour
// moves every digest, and how far the results may move is what the bounds
// on events_per_mb, jfi and goodput_frac say. A change that means only to
// make the simulator faster must show no drift row.
func compareRuns(spec benchSpec, a, b savedRun, w io.Writer) (regressed bool) {
	if a.Manifest.Seed != b.Manifest.Seed || a.Manifest.Repeats != b.Manifest.Repeats {
		fmt.Fprintf(w, "not comparable: A ran seed %d × %d repeats, B seed %d × %d; pairs need the same seeds\n",
			a.Manifest.Seed, a.Manifest.Repeats, b.Manifest.Seed, b.Manifest.Repeats)
		return true
	}
	fmt.Fprintf(w, "A: commit %s %s   B: commit %s %s\n", a.Manifest.Commit, a.Manifest.GoVersion, b.Manifest.Commit, b.Manifest.GoVersion)
	fmt.Fprintf(w, "%-24s %-18s %12s %12s %9s %8s %-18s %s\n", "workload", "metric", "A", "B", "B vs A", "spread", "bound", "verdict")
	byName := map[string]*workloadRun{}
	for _, wr := range b.Workloads {
		byName[wr.Workload] = wr
	}
	for _, wa := range a.Workloads {
		wb := byName[wa.Workload]
		if wb == nil {
			fmt.Fprintf(w, "%-24s missing from B\n", wa.Workload)
			regressed = true
			continue
		}
		for _, d := range e2eDefs {
			sa, ok := wa.E2E[d.name]
			if !ok || sa.Value == 0 {
				continue // not defined on this workload
			}
			sb := wb.E2E[d.name]
			verdict, _, spread := judge(sa.Values, sb.Values, d.better, spec.slack(d, sa.Value)/math.Abs(sa.Value))
			fmt.Fprintf(w, "%-24s %-18s %12.6g %12.6g %+8.2f%% %7.2f%% %-18s %s\n",
				wa.Workload, d.name, sa.Value, sb.Value, 100*(sb.Value/sa.Value-1), 100*spread, spec.boundText(d), verdict)
			regressed = regressed || verdict == verdictWorse
		}
		fa, fb := failedFrac(wa), failedFrac(wb)
		verdict := verdictSame
		if fb > fa {
			verdict, regressed = verdictWorse, true
		}
		fmt.Fprintf(w, "%-24s %-18s %12.6g %12.6g %18s %-18s %s\n", wa.Workload, "failed_frac", fa, fb, "", "0 absolute", verdict)
		if wa.Digest != wb.Digest {
			fmt.Fprintf(w, "%-24s %-18s %12.12s %12.12s %37s drift\n", wa.Workload, "report_digest", wa.Digest, wb.Digest, "")
		}
	}
	return regressed
}

func failedFrac(wr *workloadRun) float64 {
	if wr.Attempted == 0 {
		return 1
	}
	return float64(wr.Failed) / float64(wr.Attempted)
}
