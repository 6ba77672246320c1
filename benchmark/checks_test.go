package main

import (
	"errors"
	"testing"

	"cebinae/experiments"
)

// Each checker is fed an input it must reject, and the rejection must
// flip a run to failed: a checker that cannot fail checks nothing.

func TestWrongDigestFailsRun(t *testing.T) {
	wr := &workloadRun{Attempted: 2}
	wr.fail(checkDigest("profiled run", digestOf("a report"), digestOf("another report")))
	if wr.Failed != 1 || len(wr.Faults) != 1 {
		t.Fatalf("a wrong digest left the run passing: %+v", wr)
	}
	wr = &workloadRun{Attempted: 2}
	wr.fail(checkDigest("profiled run", digestOf("a report"), digestOf("a report")))
	if wr.Failed != 0 {
		t.Fatalf("equal digests failed the run: %+v", wr)
	}
}

func TestFastForwardErrorFailsRun(t *testing.T) {
	exact := []float64{18.7e6, 18.7e6, 18.7e6, 18.7e6}
	wr := &workloadRun{Attempted: 2}
	wr.fail(checkFFError(exact, []float64{18.7e6, 18.7e6, 18.4e6, 18.7e6})) // −1.6 % on one flow
	if wr.Failed != 1 {
		t.Fatalf("a 1.6%% goodput error left the run passing: %+v", wr)
	}
	if f := checkFFError(exact, []float64{18.7e6, 18.75e6, 18.6e6, 18.7e6}); len(f) != 0 {
		t.Fatalf("a 0.5%% error failed: %v", f)
	}
	if f := checkFFError(exact, exact[:3]); len(f) == 0 {
		t.Fatal("a missing flow passed")
	}
}

func TestFailedFleetJobFailsRun(t *testing.T) {
	sec := miniTable2(experiments.Scale(0.02))
	sec.Jobs[1].Run = func() (any, error) { return nil, errors.New("diverged") }
	o, err := runReport(sec, experiments.Scale(0.02))
	if err != nil {
		t.Fatal(err)
	}
	r := rep{outcome: o}
	if !r.failed() {
		t.Fatalf("a failed fleet job left the run passing: %+v", o)
	}
	wr := &workloadRun{}
	wr.count("repeat 0", r)
	if wr.Attempted != 1 || wr.Failed != 1 {
		t.Fatalf("run not counted as failed: %+v", wr)
	}
}

func TestRangeChecksFail(t *testing.T) {
	good := outcome{Events: 1, GoodputFrac: 0.9, JFI: 0.99}
	if f := checkRanges(good); len(f) != 0 {
		t.Fatalf("a sane outcome failed: %v", f)
	}
	for name, o := range map[string]outcome{
		"no events":              {GoodputFrac: 0.9, JFI: 0.99},
		"goodput above capacity": {Events: 1, GoodputFrac: 1.01, JFI: 0.99},
		"no goodput":             {Events: 1, JFI: 0.99},
		"jfi above one":          {Events: 1, GoodputFrac: 0.9, JFI: 1.2},
	} {
		if len(checkRanges(o)) == 0 {
			t.Errorf("%s passed", name)
		}
	}
	if len(checkBackbone(1, 100000, 100000)) == 0 || len(checkBackbone(0, 99999, 100000)) == 0 {
		t.Error("backbone invariants cannot fail")
	}
	if f := checkBackbone(0, 100000, 100000); len(f) != 0 {
		t.Errorf("sane backbone failed: %v", f)
	}
}
