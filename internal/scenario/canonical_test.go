package scenario

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite the canonical scenario files from their Go declarations")

func dur(d time.Duration) Dur { return Dur(d) }

func fptr(v float64) *float64 { return &v }

// canonicalSpecs declares the shipped scenario files. The files under
// scenarios/ are generated from these literals (go test -run
// TestCanonicalFiles -update), so the byte-identity contract has a
// single source of truth: the round-trip test pins file bytes ==
// Emit(literal), and the differential tests pin the literals' compiled
// runs against the hand-built Go scenarios.
func canonicalSpecs() map[string]*Spec {
	return map[string]*Spec{
		// The experiments determinism dumbbell: mixed CC and RTT groups
		// through the Cebinae bottleneck with sampling on.
		"dumbbell.json": {
			Version: 1, Name: "determinism", Kind: "dumbbell", Seed: 7,
			Dumbbell: &DumbbellSpec{
				Rate:        50e6,
				BufferBytes: 1 << 20,
				Groups: []GroupSpec{
					{CC: "newreno", Count: 3, RTT: dur(20 * time.Millisecond)},
					{CC: "cubic", Count: 2, RTT: dur(60 * time.Millisecond)},
					{CC: "newreno", Count: 1, RTT: dur(40 * time.Millisecond), StartAt: dur(time.Second)},
				},
				Duration:       dur(4 * time.Second),
				Qdisc:          "cebinae",
				SampleInterval: dur(200 * time.Millisecond),
			},
		},
		// The Fig.-11 parking lot under Cebinae (experiments.CanonicalChain).
		"chain.json": {
			Version: 1, Name: "chain/cebinae", Kind: "chain",
			Chain: &ChainSpec{
				Hops: 3, LongFlows: 8, CrossPerHop: []int{2, 8, 4},
				LongCC: "newreno", CrossCCs: []string{"bic", "vegas", "cubic"},
				Rate: 100e6, BufferBytes: 850 * 1500,
				LinkDelay: dur(5 * time.Millisecond), AccessDelay: dur(5 * time.Millisecond),
				Qdisc: "cebinae", CebinaeRTT: dur(120 * time.Millisecond),
				Duration: dur(2 * time.Second),
			},
		},
		// The 100k-standing-flow backbone tier (experiments.BackboneTier).
		"backbone-1e5.json": {
			Version: 1, Name: "backbone-100k", Kind: "backbone",
			Backbone: &BackboneSpec{Flows: 100000, Scale: "full"},
		},
		// The community NS-3 reproduction's multi-hop topology: a 10 Gbps
		// T1–T2 core, 1 Gbps everywhere else, S1 (10 senders at T1) and
		// S3 (10 at T2) converging on receiver R1, S2 (20 at T1) fanning
		// out to 20 R2 receivers — Cebinae guards T2's congested egress
		// ports.
		"multihop.json": {
			Version: 1, Name: "multihop", Kind: "graph", Seed: 1,
			Graph: &GraphSpec{
				Switches: []SwitchSpec{{Name: "t1"}, {Name: "t2"}},
				Links: []LinkSpec{{
					A: "t1", B: "t2", Rate: 10e9, Delay: dur(10 * time.Microsecond),
					QdiscAB: &PortQdiscSpec{Kind: "cebinae", BufferBytes: 8 << 20, CebinaeRTT: dur(time.Millisecond)},
				}},
				Hosts: []HostGroupSpec{
					{Name: "s1", Count: 10, Attach: "t1", Rate: 1e9, Delay: dur(50 * time.Microsecond)},
					{Name: "s2", Count: 20, Attach: "t1", Rate: 1e9, Delay: dur(50 * time.Microsecond)},
					{Name: "s3", Count: 10, Attach: "t2", Rate: 1e9, Delay: dur(50 * time.Microsecond)},
					{Name: "r1", Count: 1, Attach: "t2", Rate: 1e9, Delay: dur(50 * time.Microsecond),
						DownQdisc: &PortQdiscSpec{Kind: "cebinae", BufferBytes: 4 << 20, CebinaeRTT: dur(time.Millisecond)}},
					{Name: "r2", Count: 20, Attach: "t2", Rate: 1e9, Delay: dur(50 * time.Microsecond)},
				},
				Flows: []FlowGroupSpec{
					{From: "s1", To: "r1", CC: "newreno"},
					{From: "s2", To: "r2", CC: "newreno"},
					{From: "s3", To: "r1", CC: "newreno"},
				},
				Duration: dur(2 * time.Second),
				// Sub-millisecond paths: the RFC 6298 1 s floor would turn
				// the synchronized start-up loss into run-length stalls.
				MinRTO: dur(10 * time.Millisecond),
			},
		},
		// The CCA tournament matrix: every unordered pair from a
		// three-CCA field, at equal and 2× RTTs, shallow and deep
		// buffers, under FIFO and Cebinae.
		"tournament.json": {
			Version: 1, Name: "cca-tournament", Kind: "tournament", Seed: 11,
			Tournament: &TournamentSpec{
				CCAs:        []string{"newreno", "cubic", "bbr"},
				FlowsPerCCA: 2,
				Rate:        20e6,
				BaseRTT:     dur(20 * time.Millisecond),
				RTTRatios:   []float64{1, 2},
				BufferBytes: []int{37500, 300000},
				Qdiscs:      []string{"fifo", "cebinae"},
				Duration:    dur(time.Second),
				MinRTO:      dur(200 * time.Millisecond),
			},
		},
		// The BBRv1-vs-Cubic buffer-depth fairness sweep: the
		// BBR-fairness study's grid shape — BBR starves Cubic in shallow
		// buffers and cedes share as the buffer deepens — with Cebinae
		// run alongside FIFO at every depth.
		"bbr-buffer-sweep.json": {
			Version: 1, Name: "bbr-buffer-sweep", Kind: "buffer_sweep", Seed: 5,
			BufferSweep: &BufferSweepSpec{
				Groups: []GroupSpec{
					{CC: "bbr", Count: 2, RTT: dur(40 * time.Millisecond)},
					{CC: "cubic", Count: 2, RTT: dur(40 * time.Millisecond)},
				},
				Rate:        50e6,
				BufferBytes: []int{31250, 125000, 500000, 2000000},
				Qdiscs:      []string{"fifo", "cebinae"},
				Duration:    dur(6 * time.Second),
				MinRTO:      dur(200 * time.Millisecond),
			},
		},
	}
}

func scenarioPath(t *testing.T, name string) string {
	t.Helper()
	return filepath.Join("..", "..", "scenarios", name)
}

// TestCanonicalFiles pins the shipped scenario files three ways: the
// bytes on disk are exactly Emit of the Go declaration (canonical form),
// loading them yields a spec deeply equal to the declaration, and
// therefore Emit ∘ Load is the identity on every shipped file.
func TestCanonicalFiles(t *testing.T) {
	for name, want := range canonicalSpecs() {
		name, want := name, want
		t.Run(name, func(t *testing.T) {
			path := scenarioPath(t, name)
			canon, err := Emit(want)
			if err != nil {
				t.Fatal(err)
			}
			if *update {
				if err := os.WriteFile(path, canon, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing canonical file (run with -update to generate): %v", err)
			}
			if !bytes.Equal(data, canon) {
				t.Errorf("%s is not canonical: bytes differ from Emit of the Go declaration (run with -update)", name)
			}
			got, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s loads to a different spec than its Go declaration:\ngot  %+v\nwant %+v", name, got, want)
			}
		})
	}
}

// TestEmitLoadIdentity is the stand-alone round-trip law on every file
// in scenarios/ (shipped or user-added): Emit(Load(file)) == file.
func TestEmitLoadIdentity(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no scenario files found: %v", err)
	}
	for _, path := range paths {
		s, err := Load(path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		data, _ := os.ReadFile(path)
		emitted, err := Emit(s)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if !bytes.Equal(emitted, data) {
			t.Errorf("%s: Emit(Load(file)) != file", path)
		}
	}
}
