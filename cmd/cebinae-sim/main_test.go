package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"cebinae/experiments"
	"cebinae/internal/scenario"
)

// TestBuildScenarioValid checks that a full flag set round-trips into the
// Scenario the runner will execute.
func TestBuildScenarioValid(t *testing.T) {
	c, err := buildScenario("100M", 850, "newreno:16,cubic:1", "50ms,80ms", "cebinae",
		20*time.Second, 42, -1, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := c.Dumbbell
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
	c, err := buildScenario("100M", 850, "newreno:2", "40ms", "cebinae", time.Second, 1, 0.05, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p := c.Dumbbell.Params; p == nil || p.Tau != 0.05 {
		t.Fatalf("Params = %+v, want Tau 0.05", p)
	}
}

// TestBuildScenarioBackbone: -backbone builds the full-scale tier under
// -qdisc, at -duration and seeded by -seed, 0 included.
func TestBuildScenarioBackbone(t *testing.T) {
	c, err := buildScenario("100M", 850, "newreno:2", "40ms", "fifo", 40*time.Millisecond, 0, -1, 1000)
	if err != nil {
		t.Fatal(err)
	}
	want := experiments.BackboneTier(1000, experiments.Full)
	want.Qdisc = experiments.FIFO
	want.Duration = experiments.Millis(40)
	want.Trace.Duration, want.Trace.Seed = want.Duration, 0
	if c.Backbone == nil || *c.Backbone != want {
		t.Fatalf("backbone config %+v, want %+v", c.Backbone, want)
	}
}

// TestBuildScenarioErrors: every malformed flag combination must surface
// the scenario validator's diagnostic naming the bad field (or the flag
// whose syntax is bad) rather than a zero-value scenario. A case with no
// wantSub must be accepted.
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
		{"bad bandwidth", func(a *args) { a.bw = "fast" }, `-bw: rate wants a number`},
		{"negative bandwidth", func(a *args) { a.bw = "-5M" }, "scenario: dumbbell.rate: rate must be positive"},
		{"bad flow count", func(a *args) { a.flows = "newreno:zero" }, "bad flow group"},
		{"zero flow count", func(a *args) { a.flows = "newreno:0" }, "dumbbell.groups[0].count: must be positive"},
		{"unknown cca", func(a *args) { a.flows = "htcp:1" }, `dumbbell.groups[0].cc: unknown CC "htcp"`},
		{"bad rtt", func(a *args) { a.rtt = "soon" }, `bad rtt "soon"`},
		{"zero rtt", func(a *args) { a.rtt = "0s" }, "dumbbell.groups[0].rtt: duration must be positive"},
		{"negative rtt", func(a *args) { a.rtt = "-1ms" }, "dumbbell.groups[0].rtt: duration must be positive"},
		{"sub-floor rtt", func(a *args) { a.rtt = "100us" }, "dumbbell.groups[0].rtt: below the dumbbell's 200µs floor"},
		{"unknown qdisc", func(a *args) { a.qdisc = "red" }, `dumbbell.qdisc: unknown qdisc "red"`},
		{"afq accepted", func(a *args) { a.qdisc = "afq" }, ""},
		{"tau above 1", func(a *args) { a.qdisc = "cebinae"; a.tau = 5 }, "dumbbell.tau: must be in (0, 1), got 5"},
		{"tau zero", func(a *args) { a.qdisc = "cebinae"; a.tau = 0 }, "dumbbell.tau: must be in (0, 1), got 0"},
		{"tau without cebinae", func(a *args) { a.tau = 0.5 }, `dumbbell.tau: only a cebinae bottleneck reads τ, not "fifo"`},
		{"zero duration", func(a *args) { a.duration = 0 }, "dumbbell.duration: duration must be positive"},
		{"negative duration", func(a *args) { a.duration = -time.Second }, "dumbbell.duration: duration must be positive"},
		{"negative buffer", func(a *args) { a.buffer = -5 }, "dumbbell.buffer_bytes: must be positive, got -7500"},
		{"negative backbone", func(a *args) { a.backbone = -5 }, "backbone.flows: must be positive, got -5"},
		{"backbone fq", func(a *args) { a.backbone = 10; a.qdisc = "fq" }, `backbone.qdisc: unknown qdisc "fq"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := ok
			tc.mutate(&a)
			_, err := buildScenario(a.bw, a.buffer, a.flows, a.rtt, a.qdisc, a.duration, 1, a.tau, a.backbone)
			switch {
			case tc.wantSub == "" && err != nil:
				t.Fatalf("%+v refused: %v", a, err)
			case tc.wantSub == "":
			case err == nil:
				t.Fatalf("%+v accepted", a)
			case !strings.Contains(err.Error(), tc.wantSub):
				t.Fatalf("error %q does not contain %q", err, tc.wantSub)
			}
		})
	}
}

// TestBuildScenarioFlags is the one table behind -bw, -flows and -rtt,
// the syntax cebinae-sim shares with cebinae-sweep, read through the
// compile path: a value is either the dumbbell's bandwidth and groups or
// refused, by the flag syntax or by the scenario validator.
func TestBuildScenarioFlags(t *testing.T) {
	ms := func(v float64) experiments.SimTime { return experiments.SimTime(v * 1e6) }
	forty := []experiments.FlowGroup{{CC: "newreno", Count: 2, RTT: ms(40)}}
	cases := []struct {
		bw, flows, rtts string
		bps             float64
		want            []experiments.FlowGroup // nil: must be refused
	}{
		{"100M", "newreno:2", "40ms", 100e6, forty},
		{"1G", "newreno:2", "40ms", 1e9, forty},
		{"2.5G", "newreno:2", "40ms", 2.5e9, forty},
		{"250K", "newreno:2", "40ms", 250e3, forty},
		{"42", "newreno:2", "40ms", 42, forty},
		{"", "newreno:2", "40ms", 0, nil},
		{"fast", "newreno:2", "40ms", 0, nil},
		{"-1M", "newreno:2", "40ms", 0, nil},
		{"0", "newreno:2", "40ms", 0, nil},
		{"0G", "newreno:2", "40ms", 0, nil},
		{"100M", "newreno:16,cubic", "50ms,80ms", 100e6, []experiments.FlowGroup{
			{CC: "newreno", Count: 16, RTT: ms(50)}, {CC: "cubic", Count: 1, RTT: ms(80)}}},
		{"100M", "newreno:2, vegas:2,bbr:1", "40ms", 100e6, []experiments.FlowGroup{
			{CC: "newreno", Count: 2, RTT: ms(40)}, {CC: "vegas", Count: 2, RTT: ms(40)}, {CC: "bbr", Count: 1, RTT: ms(40)}}},
		{"100M", "newreno:0", "40ms", 0, nil},
		{"100M", "newreno:x", "40ms", 0, nil},
		{"100M", "newreno:2", "soon", 0, nil},
		{"100M", "newreno:2", "", 0, nil},
		{"100M", "newreno:2", "0s", 0, nil},
		{"100M", "newreno:2", "-1ms", 0, nil},
		{"100M", "newreno:2,cubic:1", "40ms,-40ms", 0, nil},
		{"100M", "newreno:2", "100us", 0, nil},
		{"100M", "newreno:2", "199999ns", 0, nil},
		{"100M", "newreno:2", "200us", 100e6, []experiments.FlowGroup{{CC: "newreno", Count: 2, RTT: experiments.MinRTT}}},
		{"100M", "foo:2", "40ms", 0, nil},
		{"100M", "newreno:1", "10ms,20ms,30ms", 0, nil},
	}
	for _, tc := range cases {
		c, err := buildScenario(tc.bw, 850, tc.flows, tc.rtts, "fifo", time.Second, 1, -1, 0)
		if tc.want == nil {
			if err == nil {
				t.Errorf("-bw %q -flows %q -rtt %q accepted as %+v", tc.bw, tc.flows, tc.rtts, c.Dumbbell)
			}
			continue
		}
		if err != nil {
			t.Errorf("-bw %q -flows %q -rtt %q: %v", tc.bw, tc.flows, tc.rtts, err)
			continue
		}
		s := c.Dumbbell
		if s.BottleneckBps != tc.bps || len(s.Groups) != len(tc.want) {
			t.Errorf("-bw %q -flows %q -rtt %q: %v bps, groups %+v; want %v bps, %+v", tc.bw, tc.flows, tc.rtts, s.BottleneckBps, s.Groups, tc.bps, tc.want)
			continue
		}
		for i := range s.Groups {
			if s.Groups[i] != tc.want[i] {
				t.Errorf("-flows %q -rtt %q: group %d is %+v, want %+v", tc.flows, tc.rtts, i, s.Groups[i], tc.want[i])
			}
		}
	}
}

// TestScenarioMatchesGoRunner: -scenario prints a spec file's section as
// exactly its Go runner's Report(), under the header naming kind, name
// and file and above the wall time its job took.
func TestScenarioMatchesGoRunner(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tiny.json")
	spec := `{"version": 1, "name": "tiny", "kind": "dumbbell", "seed": 3, "dumbbell": {
		"rate": "20M", "buffer_bytes": 150000, "duration": "300ms", "qdisc": "fifo",
		"groups": [{"cc": "newreno", "count": 2, "rtt": "10ms"}]}}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := runScenarios(&out, path); err != nil {
		t.Fatal(err)
	}
	s, err := scenario.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	c, err := scenario.Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	want := `dumbbell scenario "tiny" (` + path + ")\n" + experiments.Run(*c.Dumbbell).Report() + "wall: W\n"
	got := regexp.MustCompile(`(?m)^wall: \S+$`).ReplaceAllString(out.String(), "wall: W")
	if got != want {
		t.Errorf("-scenario output differs from the Go runner\n--- got\n%s--- want\n%s", got, want)
	}
}
