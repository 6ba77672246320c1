package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"cebinae/internal/fleet"
)

func TestBenchSectionsEnumerateUniqueJobs(t *testing.T) {
	sections := BenchSections(Quick)
	if len(sections) != 17 {
		t.Fatalf("got %d sections, want 17", len(sections))
	}
	seen := map[string]bool{}
	byID := map[string]int{}
	for _, s := range sections {
		byID[s.ID] = len(s.Jobs)
		for _, j := range s.Jobs {
			if seen[j.ID] {
				t.Errorf("duplicate job ID %s", j.ID)
			}
			seen[j.ID] = true
			if j.Run == nil {
				t.Errorf("job %s has no closure", j.ID)
			}
		}
	}
	if byID["table2"] != 25 {
		t.Errorf("table2 enumerates %d jobs, want 25 (one per row)", byID["table2"])
	}
	if len(seen) != 119 {
		t.Errorf("%d jobs, want 119 (one per simulation, one per table2 row)", len(seen))
	}
	for id, n := range map[string]int{
		"fig1": 2, "fig9": 15, "fig11": 2, "fig12": 10, "fig13": 27,
		"ext-churn": 3, "ext-udp": 3, "ext-scalability": 16, "ext-strawman": 3,
	} {
		if byID[id] != n {
			t.Errorf("%s enumerates %d jobs, want %d", id, byID[id], n)
		}
	}
}

// TestSectionRendersThroughFleet pushes the (simulation-free) Table 3
// section through the orchestrator and checks the reassembled text equals
// a direct sequential render — the JSON checkpoint roundtrip is lossless.
func TestSectionRendersThroughFleet(t *testing.T) {
	got := renderSection(t, benchSection(t, Quick, "table3"), fleet.Options{Parallelism: 2})
	if want := RenderTable3(Table3()); got != want {
		t.Fatalf("fleet render differs from direct render:\n--- fleet ---\n%s--- direct ---\n%s", got, want)
	}
}

func TestSummaryGetterSurfacesFailures(t *testing.T) {
	jobs := []fleet.Job{{ID: "doomed", Run: func() (any, error) { panic("blew up") }}}
	sum, err := fleet.Run(jobs, fleet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SummaryGetter(sum)("doomed"); err == nil || !strings.Contains(err.Error(), "blew up") {
		t.Fatalf("want failure surfaced, got %v", err)
	}
	if _, err := SummaryGetter(sum)("never-enqueued"); err == nil {
		t.Fatal("missing job not surfaced")
	}
}

// TestSectionRefusesOldSchema: a stored value of another schema — here
// the line an older cebinae-sweep wrote for a dumbbell grid cell — is an
// error naming the job and the unknown field, not a table of zeros.
func TestSectionRefusesOldSchema(t *testing.T) {
	cfg := tinySweep()
	cfg.Qdiscs = []QdiscKind{Cebinae}
	table, _ := cfg.Sections()
	old := `{"qdisc":"cebinae","scale":0.01,"threshold_pct":5,"duration_s":2,"throughput_bps":38340000,"goodput_bps":20699160,"jfi":0.9814404908090374}`
	text, err := table.Render(func(string) (json.RawMessage, error) { return json.RawMessage(old), nil })
	if err == nil || !strings.Contains(err.Error(), "sweep/cebinae/s0.01/t5") || !strings.Contains(err.Error(), `"qdisc"`) {
		t.Fatalf("old-schema value: err = %v, rendered %q", err, text)
	}
}

// TestParseScale covers the named scales, fractions, and every malformed
// or out-of-range value cebinae-bench's -scale and cebinae-sweep's
// -scales must refuse.
func TestParseScale(t *testing.T) {
	good := map[string]Scale{
		"quick":  Quick,
		"medium": Medium,
		"full":   Full,
		"0.5":    0.5,
		"0.25":   0.25,
		"1":      1,
	}
	for in, want := range good {
		got, err := ParseScale(in)
		if err != nil || got != want {
			t.Errorf("ParseScale(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"0", "1.5", "-0.1", "huge", "", "quick,full"} {
		if got, err := ParseScale(bad); err == nil {
			t.Errorf("ParseScale(%q) = %v, want an error", bad, got)
		}
	}
}

func tinySweep() SweepConfig {
	cfg := DefaultSweepConfig()
	cfg.Qdiscs = []QdiscKind{FIFO, Cebinae}
	cfg.Scales = []Scale{Scale(0.01)} // clamps to the 2 s minimum horizon
	cfg.ThresholdPcts = []float64{5}
	cfg.Base.Groups = []FlowGroup{
		{CC: "newreno", Count: 2, RTT: ms(20)},
		{CC: "cubic", Count: 1, RTT: ms(40)},
	}
	return cfg
}

func TestSweepGridShape(t *testing.T) {
	cfg := DefaultSweepConfig()
	cfg.Scales = []Scale{Quick, Medium}
	// fifo, fq: 1 point per scale; cebinae: 8 thresholds per scale.
	table, csv := cfg.Sections()
	if got, want := len(table.Jobs), 2*2+8*2; got != want || len(csv.Jobs) != want {
		t.Fatalf("grid has %d (CSV %d) cells, want %d", got, len(csv.Jobs), want)
	}
	ids := map[string]bool{}
	for i, j := range table.Jobs {
		if ids[j.ID] || csv.Jobs[i].ID != j.ID {
			t.Errorf("duplicate or unpaired cell ID %s", j.ID)
		}
		ids[j.ID] = true
	}
	// Without thresholds Cebinae has no cell: it never runs one it cannot
	// label.
	cfg.ThresholdPcts = nil
	if table, _ := cfg.Sections(); len(table.Jobs) != 2*2 {
		t.Errorf("no thresholds: %d cells, want 4", len(table.Jobs))
	}
}

// TestSweepCebinaeRunsItsThreshold: every Cebinae cell runs its
// default parameters with δp = δf = τ at its own threshold, as Fig. 12's
// runs do, and no other cell overrides Cebinae's parameters.
func TestSweepCebinaeRunsItsThreshold(t *testing.T) {
	cfg := DefaultSweepConfig()
	cfg.ThresholdPcts = []float64{0.5, 7, 57, 100}
	for _, pt := range cfg.points() {
		s := cfg.cell(pt).Scenario
		if pt.qdisc != Cebinae {
			if s.Params != nil || pt.pct != 0 {
				t.Errorf("%s: threshold %g, params %+v", s.Name, pt.pct, s.Params)
			}
			continue
		}
		want := DefaultCebinaeParams(s)
		want.DeltaPort, want.DeltaFlow, want.Tau = pt.pct/100, pt.pct/100, pt.pct/100
		if s.Params == nil || *s.Params != want {
			t.Errorf("%s: params %+v, want %+v", s.Name, s.Params, want)
		}
	}
	for _, s := range Fig12Scenarios(Quick)[2:] {
		want := DefaultCebinaeParams(s)
		want.DeltaPort, want.DeltaFlow, want.Tau = s.Params.Tau, s.Params.Tau, s.Params.Tau
		if *s.Params != want || s.Qdisc != Cebinae {
			t.Errorf("%s: params %+v, want %+v", s.Name, *s.Params, want)
		}
	}
}

// TestSweepDeterministicAcrossParallelism is the subsystem-level version
// of the p=1 vs p=8 contract: real simulations, two stores, sorted JSONL
// byte-identical.
func TestSweepDeterministicAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	cfg := tinySweep()
	dir := t.TempDir()
	var files [2][]byte
	for i, p := range []int{1, 4} {
		path := filepath.Join(dir, "sweep.jsonl")
		os.Remove(path)
		st, err := fleet.OpenStore(path)
		if err != nil {
			t.Fatal(err)
		}
		table, _ := cfg.Sections()
		sum, err := fleet.Run(table.Jobs, fleet.Options{Parallelism: p, Store: st})
		if err != nil {
			t.Fatal(err)
		}
		st.Close()
		if sum.Failed != 0 {
			t.Fatalf("p=%d: %d failed", p, sum.Failed)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
		sort.Slice(lines, func(a, b int) bool { return bytes.Compare(lines[a], lines[b]) < 0 })
		files[i] = bytes.Join(lines, []byte("\n"))
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Fatalf("sweep JSONL differs between p=1 and p=4:\n%s\n----\n%s", files[0], files[1])
	}
}

func TestSweepCSVRoundtrip(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	cfg := tinySweep()
	cfg.Qdiscs = []QdiscKind{Cebinae}
	table, csv := cfg.Sections()
	sum, err := fleet.Run(table.Jobs, fleet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	get := SummaryGetter(sum)
	txt, err := table.Render(get)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt, "cebinae   |   0.01 |         5 |      2 |") {
		t.Fatalf("rendered table missing its row:\n%s", txt)
	}
	out, err := csv.Render(get)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "qdisc,scale,threshold_pct,duration_s,throughput_mbps,goodput_mbps,jfi\ncebinae,0.01,5,2,") {
		t.Fatalf("csv header or row wrong:\n%s", out)
	}
	if lines := strings.Count(strings.TrimSpace(out), "\n"); lines != 1 {
		t.Fatalf("csv has %d data rows, want 1:\n%s", lines, out)
	}
}
