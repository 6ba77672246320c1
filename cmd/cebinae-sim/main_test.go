package main

import (
	"strings"
	"testing"
	"time"

	"cebinae/experiments"
)

// TestBuildScenarioValid checks that a full flag set round-trips into the
// Scenario the runner will execute.
func TestBuildScenarioValid(t *testing.T) {
	s, err := buildScenario("100M", 850, "newreno:16,cubic:1", "50ms,80ms", "cebinae",
		20*time.Second, 42, -1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.BottleneckBps != 100e6 {
		t.Errorf("bandwidth %v, want 100e6", s.BottleneckBps)
	}
	if s.BufferBytes != 850*1500 {
		t.Errorf("buffer %d, want %d", s.BufferBytes, 850*1500)
	}
	if s.Duration != experiments.SimTime(20e9) || s.Seed != 42 {
		t.Errorf("duration=%d seed=%d", s.Duration, s.Seed)
	}
	if len(s.Groups) != 2 || s.Groups[0].CC != "newreno" || s.Groups[0].Count != 16 ||
		s.Groups[1].CC != "cubic" || s.Groups[1].Count != 1 {
		t.Errorf("groups %+v", s.Groups)
	}
	if s.Groups[0].RTT != experiments.SimTime(50e6) || s.Groups[1].RTT != experiments.SimTime(80e6) {
		t.Errorf("rtts %v %v", s.Groups[0].RTT, s.Groups[1].RTT)
	}
	if s.Params != nil {
		t.Error("tau < 0 must leave Params nil (runner default)")
	}
}

// TestBuildScenarioTauOverride: a non-negative -tau must materialise Params
// with that τ for Cebinae (other disciplines refuse it: see
// TestBuildScenarioErrors).
func TestBuildScenarioTauOverride(t *testing.T) {
	s, err := buildScenario("100M", 850, "newreno:2", "40ms", "cebinae", time.Second, 1, 0.05, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Params == nil || s.Params.Tau != 0.05 {
		t.Fatalf("Params = %+v, want Tau 0.05", s.Params)
	}
}

// TestBuildScenarioErrors: every malformed flag combination must surface a
// diagnostic naming the bad input rather than a zero-value scenario.
func TestBuildScenarioErrors(t *testing.T) {
	type args struct {
		bw, flows, rtt, qdisc string
		buffer, backbone      int
		duration              time.Duration
		tau                   float64
	}
	ok := args{bw: "100M", flows: "newreno:2", rtt: "40ms", qdisc: "fifo", buffer: 850, duration: time.Second, tau: -1}
	cases := []struct {
		name    string
		mutate  func(*args)
		wantSub string
	}{
		{"bad bandwidth", func(a *args) { a.bw = "fast" }, "bandwidth"},
		{"negative bandwidth", func(a *args) { a.bw = "-5M" }, "bandwidth"},
		{"bad flow count", func(a *args) { a.flows = "newreno:zero" }, "flow group"},
		{"zero flow count", func(a *args) { a.flows = "newreno:0" }, "flow group"},
		{"unknown cca", func(a *args) { a.flows = "htcp:1" }, "unknown CCA \"htcp\""},
		{"bad rtt", func(a *args) { a.rtt = "soon" }, "rtt"},
		{"zero rtt", func(a *args) { a.rtt = "0s" }, "rtt"},
		{"negative rtt", func(a *args) { a.rtt = "-1ms" }, "rtt"},
		{"sub-floor rtt", func(a *args) { a.rtt = "100us" }, "-rtt 100µs: below the dumbbell's 200µs floor"},
		{"unknown qdisc", func(a *args) { a.qdisc = "red" }, "qdisc"},
		{"tau above 1", func(a *args) { a.qdisc = "cebinae"; a.tau = 5 }, "-tau"},
		{"tau without cebinae", func(a *args) { a.tau = 0.5 }, "-tau 0.5: only -qdisc cebinae"},
		{"zero duration", func(a *args) { a.duration = 0 }, "-duration"},
		{"negative duration", func(a *args) { a.duration = -time.Second }, "-duration"},
		{"negative buffer", func(a *args) { a.buffer = -5 }, "-buffer"},
		{"negative backbone", func(a *args) { a.backbone = -5 }, "-backbone"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := ok
			tc.mutate(&a)
			_, err := buildScenario(a.bw, a.buffer, a.flows, a.rtt, a.qdisc, a.duration, 1, a.tau, a.backbone)
			if err == nil {
				t.Fatalf("%+v accepted", a)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not name the bad %s", err, tc.wantSub)
			}
		})
	}
}
