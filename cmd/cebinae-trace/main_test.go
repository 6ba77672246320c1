package main

import (
	"strings"
	"testing"
	"time"

	"cebinae/experiments"
	"cebinae/internal/sim"
	"cebinae/internal/trace"
)

// TestRunReplaySmoke drives a small trace through the live replay path the
// -replay flag selects: the -flows-per-min / -duration / -seed shape must
// come out the far side as delivered packets and a rendered report.
func TestRunReplaySmoke(t *testing.T) {
	cfg := trace.DefaultConfig()
	cfg.FlowsPerMinute = 120000
	cfg.Duration = sim.Duration(40e6) // 40 ms
	cfg.Seed = 3

	var out strings.Builder
	if err := runReplay(&out, cfg, 500, 10e9); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"trace-replay", "500 standing flows", "peak 500 concurrent", "wall:"} {
		if !strings.Contains(got, want) {
			t.Errorf("replay output missing %q:\n%s", want, got)
		}
	}
}

// TestRunReplayRejectsBadTrace: invalid trace flags must surface the
// validation error, not a panic from the runner.
func TestRunReplayRejectsBadTrace(t *testing.T) {
	cfg := trace.DefaultConfig()
	cfg.MinFlowBytes = 0

	var out strings.Builder
	if err := runReplay(&out, cfg, 100, 10e9); err == nil {
		t.Fatal("zero MinFlowBytes accepted")
	}
}

// TestCheckFlagsRefuses: every flag value that used to hang Fig13Score,
// panic in the trace generator or netem, or score no trials is refused
// before anything runs, and the default flags pass in every mode.
func TestCheckFlagsRefuses(t *testing.T) {
	type flags struct {
		cfg           trace.Config
		replay        bool
		stages, slots int
		interval      time.Duration
		trials        int
	}
	defaults := func() flags {
		return flags{cfg: trace.DefaultConfig(), stages: 2, slots: 2048, interval: 100 * time.Millisecond, trials: 10}
	}
	check := func(f flags) error {
		return checkFlags(f.cfg, f.replay, f.stages, f.slots, f.interval, f.trials)
	}
	for _, replay := range []bool{false, true} {
		f := defaults()
		f.replay = replay
		if err := check(f); err != nil {
			t.Errorf("default flags (replay=%v) refused: %v", replay, err)
		}
	}
	for _, c := range []struct {
		name string
		set  func(*flags)
		want string
	}{
		{"-interval 0", func(f *flags) { f.interval = 0 }, "-interval must be positive"},
		{"-interval -5ms", func(f *flags) { f.interval = -5 * time.Millisecond }, "-interval must be positive"},
		{"-duration 0", func(f *flags) { f.cfg.Duration = 0 }, "Duration must be positive"},
		{"-alpha 0", func(f *flags) { f.cfg.ParetoAlpha = 0 }, "ParetoAlpha must be positive"},
		{"-flows-per-min 0", func(f *flags) { f.cfg.FlowsPerMinute = 0 }, "FlowsPerMinute must be positive"},
		{"-replay -link-gbps 0", func(f *flags) { f.replay, f.cfg.LinkBps = true, 0 }, "-link-gbps must be positive"},
		{"-trials -3", func(f *flags) { f.trials = -3 }, "-trials must be positive"},
		{"-slots 3", func(f *flags) { f.slots = 3 }, "slots must be a power of two"},
	} {
		f := defaults()
		c.set(&f)
		if err := check(f); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Fig13Score with a zero interval returned")
		}
	}()
	experiments.Fig13Score(experiments.Fig13Config{Trials: 1, Trace: trace.DefaultConfig()}, 2, 2048, 0)
}
