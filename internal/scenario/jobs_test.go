package scenario

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"cebinae/experiments"
	"cebinae/internal/fleet"
)

// tinySpecs declares one fast spec per kind, sized so running each twice
// (once through the fleet jobs, once directly) stays in the tens of
// milliseconds.
func tinySpecs() []*Spec {
	return []*Spec{
		{
			Version: 1, Name: "tiny-dumbbell", Kind: "dumbbell", Seed: 3,
			Dumbbell: &DumbbellSpec{
				Rate: 20e6, BufferBytes: 100 * 1500,
				Groups:   []GroupSpec{{CC: "newreno", Count: 2, RTT: dur(10 * time.Millisecond)}},
				Duration: dur(300 * time.Millisecond), Qdisc: "fifo",
			},
		},
		{
			Version: 1, Name: "tiny-chain", Kind: "chain", Seed: 3,
			Chain: &ChainSpec{
				Hops: 1, LongFlows: 1, CrossPerHop: []int{1},
				LongCC: "newreno", CrossCCs: []string{"cubic"},
				Rate: 50e6, BufferBytes: 100 * 1500,
				LinkDelay: dur(time.Millisecond), AccessDelay: dur(time.Millisecond),
				Qdisc: "fifo", Duration: dur(300 * time.Millisecond),
			},
		},
		{
			Version: 1, Name: "tiny-backbone", Kind: "backbone",
			Backbone: &BackboneSpec{Flows: 1000, Scale: "quick", Qdisc: "fifo"},
		},
		{
			Version: 1, Name: "tiny-graph", Kind: "graph", Seed: 3,
			Graph: &GraphSpec{
				Switches: []SwitchSpec{{Name: "a"}, {Name: "b"}},
				Links:    []LinkSpec{{A: "a", B: "b", Rate: 100e6, Delay: dur(time.Millisecond)}},
				Hosts: []HostGroupSpec{
					{Name: "src", Count: 2, Attach: "a", Rate: 200e6, Delay: dur(time.Millisecond)},
					{Name: "dst", Count: 1, Attach: "b", Rate: 200e6, Delay: dur(time.Millisecond),
						DownQdisc: &PortQdiscSpec{Kind: "cebinae", BufferBytes: 1 << 20, CebinaeRTT: dur(10 * time.Millisecond)}},
				},
				Flows:    []FlowGroupSpec{{From: "src", To: "dst", CC: "newreno"}},
				Duration: dur(300 * time.Millisecond),
				MinRTO:   dur(10 * time.Millisecond),
			},
		},
		{
			Version: 1, Name: "tiny-sweep", Kind: "buffer_sweep", Seed: 3,
			BufferSweep: &BufferSweepSpec{
				Groups:      []GroupSpec{{CC: "newreno", Count: 2, RTT: dur(10 * time.Millisecond)}},
				Rate:        20e6,
				BufferBytes: []int{37500},
				Qdiscs:      []string{"fifo"},
				Duration:    dur(300 * time.Millisecond),
				MinRTO:      dur(200 * time.Millisecond),
			},
		},
	}
}

// runSection runs a section's jobs on a one-worker fleet and renders it
// from the summary — the path every CLI takes, JSON round-trip included.
func runSection(t *testing.T, sec experiments.BenchSection) string {
	t.Helper()
	for _, job := range sec.Jobs {
		if job.ID == "" || job.Desc == "" {
			t.Errorf("job missing ID/Desc: %+v", job)
		}
	}
	sum, err := fleet.Run(sec.Jobs, fleet.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	text, err := sec.Render(experiments.SummaryGetter(sum))
	if err != nil {
		t.Fatal(err)
	}
	return text
}

// directReport runs the compiled config through its Go runner, with no
// fleet, checkpoint or JSON in between.
func directReport(c *Compiled) string {
	switch {
	case c.Dumbbell != nil:
		return experiments.Run(*c.Dumbbell).Report()
	case c.Chain != nil:
		return experiments.RunChain(*c.Chain).Report()
	case c.Backbone != nil:
		return experiments.RunBackbone(*c.Backbone).Render()
	case c.Graph != nil:
		return experiments.RunGraph(*c.Graph).Report()
	}
	rs := make([]experiments.Result, len(c.Grid))
	for i, cell := range c.Grid {
		rs[i] = experiments.Run(cell.Scenario)
	}
	return experiments.RenderGrid(c.Spec.Name, c.Grid, rs)
}

// TestSectionMatchesDirectReport is the fleet-path contract for every
// scenario kind: the compiled scenario's section, run through the fleet
// and rendered from its checkpointed values, prints exactly the bytes its
// Go runner's Report() gives from a direct run.
func TestSectionMatchesDirectReport(t *testing.T) {
	for _, spec := range tinySpecs() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			c, err := Compile(spec)
			if err != nil {
				t.Fatal(err)
			}
			got, want := runSection(t, c.Section("t/")), directReport(c)
			if got != want {
				t.Errorf("section report differs from direct run\n--- section\n%s--- direct\n%s", got, want)
			}
		})
	}
}

// TestSectionWrapsJobsAndRender pins the bench-report packaging: the
// section is named scenario/<name>, its job IDs carry the prefix, and its
// Render closure reproduces the direct report.
func TestSectionWrapsJobsAndRender(t *testing.T) {
	c, err := Compile(tinySpecs()[0])
	if err != nil {
		t.Fatal(err)
	}
	sec := c.Section("p/")
	if sec.ID != "scenario/tiny-dumbbell" {
		t.Errorf("section ID = %q", sec.ID)
	}
	if !strings.Contains(sec.Desc, "dumbbell") {
		t.Errorf("section Desc = %q", sec.Desc)
	}
	if len(sec.Jobs) != 1 || sec.Jobs[0].ID != "p/scenario/tiny-dumbbell" {
		t.Fatalf("section jobs = %+v", sec.Jobs)
	}
	if runSection(t, sec) != directReport(c) {
		t.Errorf("section render differs from direct run")
	}
}

// TestSetShardsCoversEveryKind pins SetShards for each compiled
// representation: chain and backbone take the count, and every other kind
// — one engine, no shard field — panics naming its kind instead of
// ignoring the request.
func TestSetShardsCoversEveryKind(t *testing.T) {
	for _, spec := range tinySpecs() {
		c, err := Compile(spec)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case c.Chain != nil:
			c.SetShards(2)
			if c.Chain.Shards != 2 {
				t.Errorf("%s: shards = %d after SetShards(2)", spec.Name, c.Chain.Shards)
			}
		case c.Backbone != nil:
			c.SetShards(2)
			if c.Backbone.Shards != 2 {
				t.Errorf("%s: shards = %d after SetShards(2)", spec.Name, c.Backbone.Shards)
			}
		default:
			func() {
				defer func() {
					if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), fmt.Sprintf("%q", spec.Kind)) {
						t.Errorf("%s: SetShards(2) on a %s spec: recovered %v, want a panic naming the kind", spec.Name, spec.Kind, r)
					}
				}()
				c.SetShards(2)
			}()
		}
	}
}

// TestRunReadsConfigAtCallTime: a section's jobs read the exported config
// when they run, not when Compile or Section built them, so an edit made
// through the pointer (what the benchmark and the CLIs do) reaches the run.
func TestRunReadsConfigAtCallTime(t *testing.T) {
	c, err := Compile(tinySpecs()[0])
	if err != nil {
		t.Fatal(err)
	}
	if c.Dumbbell == nil {
		t.Fatalf("tinySpecs()[0] is %s, want the dumbbell", c.Spec.Kind)
	}
	sec := c.Section("")
	before := runSection(t, sec)
	c.Dumbbell.Seed++
	after := runSection(t, sec)
	if after == before {
		t.Fatal("the section ignored an edit made to *c.Dumbbell after Compile")
	}
	if want := experiments.Run(*c.Dumbbell).Report(); after != want {
		t.Errorf("the section after the edit differs from Run(*c.Dumbbell)")
	}
}

// TestRenderDecodeFailures pins the decode error paths: a getter that
// fails and a getter that returns malformed JSON both surface as errors,
// not panics or empty reports.
func TestRenderDecodeFailures(t *testing.T) {
	c, err := Compile(tinySpecs()[0])
	if err != nil {
		t.Fatal(err)
	}
	sec := c.Section("")
	if _, err := sec.Render(func(id string) (json.RawMessage, error) {
		return nil, strings.NewReader("").UnreadRune()
	}); err == nil {
		t.Error("getter failure not propagated")
	}
	if _, err := sec.Render(func(id string) (json.RawMessage, error) {
		return json.RawMessage(`{"bad":`), nil
	}); err == nil || !strings.Contains(err.Error(), "decode") {
		t.Errorf("malformed value: got %v", err)
	}
}
