package main

import (
	"fmt"
	"math"
)

// Correctness checks. Each returns the faults it found as strings; any
// fault fails the run it belongs to, and failed runs over attempted runs
// is failed_frac. A checker that cannot fail checks nothing, so
// checks_test.go feeds every one of them a deliberately wrong input.

// ffErrBound is the fast-forward contract: worst per-flow goodput error
// against the exact packet-level run.
const ffErrBound = 0.01

// checkRanges holds for every single-scenario outcome: the simulator did
// work, delivered no more than the links can carry, and its fairness
// index is an index.
func checkRanges(o outcome) []string {
	var faults []string
	if o.Events == 0 {
		faults = append(faults, "no events dispatched")
	}
	faults = append(faults, checkFrac("goodput_frac", o.GoodputFrac)...)
	if o.JFI != 0 {
		faults = append(faults, checkFrac("jfi", o.JFI)...)
	}
	return faults
}

func checkFrac(name string, v float64) []string {
	if !(v > 0 && v <= 1) {
		return []string{fmt.Sprintf("%s = %v outside (0, 1]", name, v)}
	}
	return nil
}

func checkBackbone(sketchUnderestimates, peakActive, flows int) []string {
	var faults []string
	if sketchUnderestimates != 0 {
		faults = append(faults, fmt.Sprintf("count-min sketch undercounted %d flows", sketchUnderestimates))
	}
	if peakActive < flows {
		faults = append(faults, fmt.Sprintf("peak population %d below the %d standing flows", peakActive, flows))
	}
	return faults
}

func checkReport(o outcome, failedJobs int) []string {
	var faults []string
	if failedJobs != 0 {
		faults = append(faults, fmt.Sprintf("%d fleet jobs failed", failedJobs))
	}
	faults = append(faults, checkFrac("goodput_frac", o.GoodputFrac)...)
	return append(faults, checkFrac("jfi", o.JFI)...)
}

// checkDigest compares two executions that must print the same bytes:
// repeats of one seed, a profiled run and its plain twin, the sharded
// chain and its serial twin.
func checkDigest(what, got, want string) []string {
	if got != want {
		return []string{fmt.Sprintf("%s: report digest %.12s differs from %.12s", what, got, want)}
	}
	return nil
}

// ffWorstErr is the worst per-flow relative goodput error of the
// accelerated run against the exact one.
func ffWorstErr(exact, ff []float64) float64 {
	if len(exact) != len(ff) {
		return math.Inf(1)
	}
	worst := 0.0
	for i, e := range exact {
		if e == 0 {
			continue
		}
		worst = math.Max(worst, math.Abs(ff[i]-e)/e)
	}
	return worst
}

func checkFFError(exact, ff []float64) []string {
	if err := ffWorstErr(exact, ff); err > ffErrBound {
		return []string{fmt.Sprintf("fast-forward per-flow goodput error %.3f%% exceeds %.0f%%", 100*err, 100*ffErrBound)}
	}
	return nil
}
