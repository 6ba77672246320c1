package experiments

import (
	"bytes"
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
	table3, err := FindSection(Quick, "table3")
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunSection(table3, fleet.Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
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

// TestDecodeOKSkipsFailuresAndSorts: failed jobs contribute no row, the
// rest come back in less order whatever order the summary held them in,
// and a malformed value is an error naming its job.
func TestDecodeOKSkipsFailuresAndSorts(t *testing.T) {
	results := []fleet.Result{
		{ID: "a", OK: true, Value: []byte("3")},
		{ID: "b", OK: false, Err: "boom"},
		{ID: "c", OK: true, Value: []byte("1")},
		{ID: "d", OK: true, Value: []byte("2")},
	}
	got, err := DecodeOK(results, func(a, b int) bool { return a < b })
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("decoded %v, want [1 2 3]", got)
	}
	results[0].Value = []byte(`"x"`)
	if _, err := DecodeOK(results, func(a, b int) bool { return a < b }); err == nil || !strings.Contains(err.Error(), "decode a") {
		t.Fatalf("malformed value: got %v", err)
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
	cfg.Groups = []FlowGroup{
		{CC: "newreno", Count: 2, RTT: ms(20)},
		{CC: "cubic", Count: 1, RTT: ms(40)},
	}
	return cfg
}

func TestSweepGridShape(t *testing.T) {
	cfg := DefaultSweepConfig()
	cfg.Scales = []Scale{Quick, Medium}
	// fifo, fq: 1 point per scale; cebinae: 8 thresholds per scale.
	if got, want := len(cfg.Points()), 2*2+8*2; got != want {
		t.Fatalf("grid has %d points, want %d", got, want)
	}
	ids := map[string]bool{}
	for _, p := range cfg.Points() {
		if ids[p.ID()] {
			t.Errorf("duplicate point ID %s", p.ID())
		}
		ids[p.ID()] = true
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
		sum, err := fleet.Run(cfg.Jobs(), fleet.Options{Parallelism: p, Store: st})
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
	sum, err := fleet.Run(cfg.Jobs(), fleet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := DecodeOK(sum.Results, SweepResult.Less)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Qdisc != Cebinae || rows[0].ThresholdPct != 5 {
		t.Fatalf("decoded rows %+v", rows)
	}
	if rows[0].GoodputBps <= 0 || rows[0].JFI <= 0 {
		t.Fatalf("degenerate measurement %+v", rows[0])
	}
	var buf bytes.Buffer
	if err := WriteSweepCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "qdisc,scale,threshold_pct,duration_s,throughput_mbps,goodput_mbps,jfi\n") {
		t.Fatalf("csv header wrong:\n%s", out)
	}
	if lines := strings.Count(strings.TrimSpace(out), "\n"); lines != 1 {
		t.Fatalf("csv has %d data rows, want 1:\n%s", lines, out)
	}
	if txt := RenderSweep(rows); !strings.Contains(txt, "cebinae") {
		t.Fatalf("rendered table missing rows:\n%s", txt)
	}
}
