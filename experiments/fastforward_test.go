package experiments

import (
	"os"
	"strings"
	"testing"
	"time"
)

// ffCell is the canonical provably-quiescent differential cell: an
// access-limited BBR dumbbell, where every flow's stationary rate is
// pinned by its own edge link, so the exact packet-level run converges
// to constant per-flow goodput that the fluid model must reproduce.
func ffCell(q QdiscKind, dur SimTime) Scenario {
	return Scenario{
		Name: "ff-diff", BottleneckBps: 100e6, BufferBytes: 375000,
		AccessBps: 20e6,
		Groups:    []FlowGroup{{CC: "bbr", Count: 4, RTT: Millis(40)}},
		Duration:  dur, Qdisc: q, Seed: 1,
	}
}

// maxFlowErr returns the worst per-flow goodput error (fraction) of ff
// against exact.
func maxFlowErr(t *testing.T, exact, ff Result) float64 {
	t.Helper()
	if len(exact.Flows) != len(ff.Flows) {
		t.Fatalf("flow count diverged: %d vs %d", len(exact.Flows), len(ff.Flows))
	}
	worst := 0.0
	for i := range exact.Flows {
		e, f := exact.Flows[i].GoodputBps, ff.Flows[i].GoodputBps
		if e == 0 {
			t.Fatalf("flow %d moved no bytes in the exact run", i)
		}
		err := (f - e) / e
		if err < 0 {
			err = -err
		}
		if err > worst {
			worst = err
		}
	}
	return worst
}

// TestFastForwardDifferential is the fluid-vs-packet error-bound gate:
// with fast-forward on, the converged cell must save ≥5× the events while
// keeping every flow's goodput within 1% of the exact packet-level run.
// The Cebinae variant additionally exercises rotation/configure deadlines
// as pinned skip boundaries and the closed-form heavy-hitter/LBF feed.
func TestFastForwardDifferential(t *testing.T) {
	for _, q := range []QdiscKind{FIFO, Cebinae} {
		base := ffCell(q, Seconds(120))
		exact := Run(base)
		ff := base
		ff.FastForward = true
		fr := Run(ff)

		if fr.FF.Skips == 0 || fr.FF.Arms == 0 {
			t.Fatalf("%s: fluid mode never engaged: %+v", q, fr.FF)
		}
		if ratio := float64(exact.Events) / float64(fr.Events); ratio < 5 {
			t.Fatalf("%s: event reduction %.1f× < 5×: exact=%d ff=%d", q, ratio, exact.Events, fr.Events)
		}
		if worst := maxFlowErr(t, exact, fr); worst > 0.01 {
			t.Fatalf("%s: per-flow goodput error %.3f%% exceeds the 1%% bound", q, 100*worst)
		}
	}
}

// TestFastForwardDeterministic pins the accelerated path to the same
// reproducibility contract as everything else: two fast-forward runs of
// the same scenario must produce byte-identical reports.
func TestFastForwardDeterministic(t *testing.T) {
	s := ffCell(Cebinae, Seconds(30))
	s.FastForward = true
	a, b := Run(s), Run(s)
	if a.Report() != b.Report() {
		t.Fatal("fast-forward runs diverged between repetitions")
	}
	if a.FF != b.FF {
		t.Fatalf("controller stats diverged: %+v vs %+v", a.FF, b.FF)
	}
}

// TestFastForwardSaturatedNeverArms pins the validity-domain doctrine: a
// saturated cell (no access limit — the four BBR flows contend for the
// whole bottleneck, so their shares wander through probing cycles) must
// never arm: with no dedicated access links there is no pinned-rate
// proof of a unique stationary allocation, so every flow's floor is
// infinite. With zero skips the accelerated run's physics must equal
// the exact run's byte for byte — fast-forward on an out-of-domain cell
// costs accuracy nothing because it stays at packet level. Only the
// dispatch count may differ: the controller's sampler processes its own
// observation events.
func TestFastForwardSaturatedNeverArms(t *testing.T) {
	sat := ffCell(Cebinae, Seconds(20))
	sat.AccessBps = 0
	plain := Run(sat)
	ff := sat
	ff.FastForward = true
	fr := Run(ff)
	if fr.FF.ForcedOff {
		t.Fatalf("saturated cell reported ForcedOff — it is eligible, just never quiescent: %+v", fr.FF)
	}
	if fr.FF.Arms != 0 || fr.FF.Skips != 0 {
		t.Fatalf("saturated cell armed %d times, skipped %d — pinned-floor guard failed: %+v",
			fr.FF.Arms, fr.FF.Skips, fr.FF)
	}
	stripEvents := func(r Result) string {
		rep := r.Report()
		return rep[strings.Index(rep, " "):]
	}
	if stripEvents(plain) != stripEvents(fr) {
		t.Fatal("never-armed fast-forward run's physics diverged from the plain run")
	}
	if fr.Events <= plain.Events {
		t.Fatalf("sampler events missing from dispatch count: plain=%d ff=%d", plain.Events, fr.Events)
	}
}

// TestFastForwardIneligibleQdisc: the calendar baselines are outside the
// set fluidEligible admits, so a fast-forward request on them must fall
// back to exact packet level.
func TestFastForwardIneligibleQdisc(t *testing.T) {
	base := ffCell(AFQ, Seconds(10))
	plain := Run(base)
	ff := base
	ff.FastForward = true
	fr := Run(ff)
	if !fr.FF.ForcedOff {
		t.Fatalf("afq run did not force fast-forward off: %+v", fr.FF)
	}
	if plain.Report() != fr.Report() {
		t.Fatal("ineligible-qdisc forced-off run is not byte-identical")
	}
}

// TestFastForwardRotationOnEpochBoundary aligns a Cebinae rotation
// deadline exactly with the warmup measurement epoch (both pinned at the
// same instant): the skip must land on the shared boundary, dispatch
// both, and carry on — the engine treats a pinned event exactly at the
// skip target as legal re-entry.
func TestFastForwardRotationOnEpochBoundary(t *testing.T) {
	// All-binary timing so the alignment is exact: duration 2^33 ns
	// (~8.6 s), warmup fraction 1/4 → warmup boundary at 2^31 ns, dT
	// 2^23 ns (~8.4 ms, rotations must be a power of two) → the warmup
	// epoch is rotation number 256 precisely. The buffer shrinks to fit
	// Cebinae's Eq.2 headroom constraint at this small a rotation period.
	s := ffCell(Cebinae, SimTime(1)<<33)
	s.BufferBytes = 100000
	s.WarmupFraction = 0.25
	p := DefaultCebinaeParams(s)
	p.DT = SimTime(1) << 23
	s.Params = &p
	s.FastForward = true
	r := Run(s)
	if r.FF.Skips == 0 {
		t.Fatalf("fluid mode never engaged around the aligned boundary: %+v", r.FF)
	}
	if r.GoodputBps == 0 {
		t.Fatal("run moved no bytes")
	}
}

// TestFastForwardLongHorizon is the ≥10-minute scored cell behind the
// fastforward-smoke make target: wall-clock speedup ≥5× with the 1%
// per-flow bound on a converged Cebinae dumbbell.
func TestFastForwardLongHorizon(t *testing.T) {
	if os.Getenv("CEBINAE_FASTFORWARD_SMOKE") == "" {
		t.Skip("set CEBINAE_FASTFORWARD_SMOKE=1 to run the long-horizon fluid differential")
	}
	base := ffCell(Cebinae, Seconds(600))
	t0 := time.Now()
	exact := Run(base)
	exactWall := time.Since(t0)
	ff := base
	ff.FastForward = true
	t0 = time.Now()
	fr := Run(ff)
	ffWall := time.Since(t0)

	speedup := exactWall.Seconds() / ffWall.Seconds()
	worst := maxFlowErr(t, exact, fr)
	t.Logf("600 s cell: wall %.2fs → %.2fs (%.1f×), events %d → %d (%.1f×), worst flow error %.3f%%, ff=%+v",
		exactWall.Seconds(), ffWall.Seconds(), speedup,
		exact.Events, fr.Events, float64(exact.Events)/float64(fr.Events), 100*worst, fr.FF)
	if speedup < 5 {
		t.Fatalf("wall-clock speedup %.1f× < 5×", speedup)
	}
	if worst > 0.01 {
		t.Fatalf("per-flow goodput error %.3f%% exceeds the 1%% bound", 100*worst)
	}
}
