package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cebinae/experiments"
	"cebinae/internal/scenario"
)

func TestParseQdiscs(t *testing.T) {
	got := parseQdiscs("fifo, fq,cebinae")
	want := []experiments.QdiscKind{experiments.FIFO, experiments.FQ, experiments.Cebinae}
	if len(got) != len(want) {
		t.Fatalf("parsed %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("parsed %v, want %v", got, want)
		}
	}
}

// TestGridRefusesUnknownQdisc: the dumbbell grid compiles its family
// under every -qdiscs entry, so the scenario validator refuses a
// discipline no dumbbell runs, naming the field, before any cell runs;
// the default flags compile to the default family.
func TestGridRefusesUnknownQdisc(t *testing.T) {
	_, err := family("100M", 850, "newreno:16,cubic:1", "50ms", 7, parseQdiscs("fifo,red"))
	if err == nil || !strings.Contains(err.Error(), `dumbbell.qdisc: unknown qdisc "red"`) {
		t.Errorf("dumbbell grid -qdiscs fifo,red: err = %v", err)
	}
	base, err := family("100M", 850, "newreno:16,cubic:1", "50ms", 7, parseQdiscs("afq,pcq,strawman"))
	if err != nil {
		t.Errorf("dumbbell grid -qdiscs afq,pcq,strawman: %v", err)
	}
	def := experiments.DefaultSweepConfig().Base
	base.Name, base.Qdisc = def.Name, def.Qdisc // each cell sets both
	if !reflect.DeepEqual(base, def) {
		t.Errorf("the default flags compile to %+v, want the default family %+v", base, def)
	}
}

func TestParseScales(t *testing.T) {
	got, err := parseScales("quick,full,0.25")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != experiments.Quick || got[1] != experiments.Full || got[2] != experiments.Scale(0.25) {
		t.Fatalf("parsed %v", got)
	}
	for _, bad := range []string{"huge", "0", "1.5", "-0.1"} {
		if _, err := parseScales(bad); err == nil {
			t.Fatalf("scale %q accepted", bad)
		}
	}
}

func TestParseFloats(t *testing.T) {
	got, err := parseFloats("1, 2.5,100")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2.5 || got[2] != 100 {
		t.Fatalf("parsed %v", got)
	}
	for _, bad := range []string{"x", "-1", "500", "100.5", "0", "NaN"} {
		if _, err := parseFloats(bad); err == nil {
			t.Fatalf("threshold %q accepted", bad)
		}
	}
}

// TestParseTiers: parseTiers refuses what is not an integer list, and the
// backbone grid refuses a non-positive tier — any tier, not only the
// first — in the scenario validator's words, before any cell runs.
func TestParseTiers(t *testing.T) {
	got, err := parseTiers("20000, 100000,1000000")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 20000 || got[1] != 100000 || got[2] != 1000000 {
		t.Fatalf("parsed %v", got)
	}
	for _, bad := range []string{"", "x", "1e5"} {
		if _, err := parseTiers(bad); err == nil {
			t.Fatalf("tier list %q accepted", bad)
		}
	}
	dir := t.TempDir()
	d := sweeper{parallel: 1, storePath: filepath.Join(dir, "s.jsonl"), out: io.Discard, log: io.Discard}
	for _, bad := range []string{"0", "-5", "1000,-5"} {
		err := d.backbone(bad, "fifo,cebinae", "0.02", filepath.Join(dir, "s.csv"))
		if err == nil || !strings.Contains(err.Error(), "scenario: backbone.flows: must be positive") {
			t.Fatalf("tier list %q: err = %v", bad, err)
		}
	}
}

// TestBackboneRefusesUnknownQdisc: the backbone grid runs the -qdiscs it is
// given, so a discipline the backbone core does not offer is refused by
// the scenario validator before any cell runs.
func TestBackboneRefusesUnknownQdisc(t *testing.T) {
	dir := t.TempDir()
	var out, log bytes.Buffer
	d := sweeper{parallel: 1, storePath: filepath.Join(dir, "s.jsonl"), out: &out, log: &log}
	err := d.backbone("1000", "fifo,fq", "0.02", filepath.Join(dir, "s.csv"))
	if err == nil || !strings.Contains(err.Error(), `scenario: backbone.qdisc: unknown qdisc "fq"`) {
		t.Fatalf("-backbone 1000 -qdiscs fifo,fq: err = %v", err)
	}
	if out.Len() != 0 || log.Len() != 0 {
		t.Errorf("a refused grid ran: stdout %q, stderr %q", out.String(), log.String())
	}
}

// twoCellGrid is a dumbbell sweep of two short cells: FIFO, and Cebinae at
// one threshold.
func twoCellGrid() experiments.SweepConfig {
	cfg := experiments.DefaultSweepConfig()
	cfg.Qdiscs = []experiments.QdiscKind{experiments.FIFO, experiments.Cebinae}
	cfg.Scales = []experiments.Scale{0.01}
	cfg.ThresholdPcts = []float64{5}
	cfg.Base.Groups = []experiments.FlowGroup{{CC: "newreno", Count: 2, RTT: experiments.Millis(20)}}
	return cfg
}

// sweepGrid runs the dumbbell mode on cfg and returns its stdout,
// its stderr and the CSV it wrote.
func sweepGrid(t *testing.T, cfg experiments.SweepConfig, store string, resume bool) (string, string, string, error) {
	t.Helper()
	var out, log bytes.Buffer
	d := sweeper{parallel: 2, storePath: store, resume: resume, out: &out, log: &log}
	csvPath := filepath.Join(t.TempDir(), "sweep.csv")
	table, sheet := cfg.Sections()
	err := d.grid("grid cell", table, sheet, csvPath)
	csv, _ := os.ReadFile(csvPath)
	return out.String(), log.String(), string(csv), err
}

// TestSweepRefusesExistingStore: without -resume an existing store is
// refused before any cell runs, and the store is left as it was.
func TestSweepRefusesExistingStore(t *testing.T) {
	store := filepath.Join(t.TempDir(), "sweep.jsonl")
	if err := os.WriteFile(store, []byte("kept\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, _, _, err := sweepGrid(t, twoCellGrid(), store, false)
	if err == nil || !strings.Contains(err.Error(), "already exists; pass -resume") {
		t.Fatalf("existing store without -resume: err = %v", err)
	}
	if out != "" {
		t.Errorf("a refused sweep printed %q", out)
	}
	if data, _ := os.ReadFile(store); string(data) != "kept\n" {
		t.Errorf("a refused sweep touched the store: %q", data)
	}
}

// TestSweepResumeRerunsNothing: a second run over a complete store with
// -resume takes every cell from it, appends nothing, and prints the same
// table and CSV as the run that measured them.
func TestSweepResumeRerunsNothing(t *testing.T) {
	store := filepath.Join(t.TempDir(), "sweep.jsonl")
	out1, _, csv1, err := sweepGrid(t, twoCellGrid(), store, false)
	if err != nil {
		t.Fatal(err)
	}
	stored, err := os.ReadFile(store)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(stored), "\n"); n != 2 {
		t.Fatalf("first run stored %d lines, want 2", n)
	}
	out2, log2, csv2, err := sweepGrid(t, twoCellGrid(), store, true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(log2, "2 grid cells (2 already in") || !strings.Contains(log2, "(2 cached, 0 failed)") {
		t.Errorf("resumed run did not take both cells from the store:\n%s", log2)
	}
	if again, _ := os.ReadFile(store); !bytes.Equal(again, stored) {
		t.Errorf("resumed run appended to the store:\n%s", again)
	}
	if out2 != out1 || csv2 != csv1 {
		t.Errorf("resumed output differs\n--- first\n%s%s--- resumed\n%s%s", out1, csv1, out2, csv2)
	}
	if strings.Count(out1, "\n") != 3 || strings.Count(csv1, "\n") != 3 {
		t.Errorf("want a header and two rows in each of table and CSV:\n%s%s", out1, csv1)
	}
}

// TestSweepRefusesParentStore: a store whose values are of the older
// per-tool schema (a dumbbell row of qdisc, scale, threshold and three
// numbers) is refused under -resume, naming the job and the field, and
// prints nothing.
func TestSweepRefusesParentStore(t *testing.T) {
	store := filepath.Join(t.TempDir(), "sweep.jsonl")
	old := `{"id":"sweep/fifo/s0.01/t0","ok":true,"value":{"qdisc":"fifo","scale":0.01,"threshold_pct":0,"duration_s":2,"throughput_bps":38340000,"goodput_bps":20699160,"jfi":0.98}}` + "\n" +
		`{"id":"sweep/cebinae/s0.01/t5","ok":true,"value":{"qdisc":"cebinae","scale":0.01,"threshold_pct":5,"duration_s":2,"throughput_bps":38340000,"goodput_bps":20699160,"jfi":0.98}}` + "\n"
	if err := os.WriteFile(store, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	out, log, csv, err := sweepGrid(t, twoCellGrid(), store, true)
	if err == nil || !strings.Contains(err.Error(), "sweep/") || !strings.Contains(err.Error(), `unknown field "qdisc"`) {
		t.Fatalf("parent-written store: err = %v", err)
	}
	if !strings.Contains(log, "(2 cached, 0 failed)") || out != "" || csv != "" {
		t.Errorf("a refused store printed a table or CSV:\n%s%s%s", log, out, csv)
	}
}

// TestGridFailedCellPrintsNothing: a grid with a failed cell prints no
// table and writes no CSV, and its error names the failed job.
func TestGridFailedCellPrintsNothing(t *testing.T) {
	dir := t.TempDir()
	cells := []experiments.Cell[int]{
		{Key: "fine", Run: func() int { return 1 }},
		{Key: "doomed", Run: func() int { panic("blew up") }},
	}
	sec := experiments.NewSection("", "grid", "", cells, func(v []int) string { return fmt.Sprintln(v) })
	var out, log bytes.Buffer
	d := sweeper{parallel: 1, storePath: filepath.Join(dir, "s.jsonl"), out: &out, log: &log}
	csvPath := filepath.Join(dir, "s.csv")
	err := d.grid("grid cell", sec, sec, csvPath)
	if err == nil || !strings.Contains(err.Error(), "grid/doomed") || !strings.Contains(err.Error(), "blew up") {
		t.Fatalf("failed cell: err = %v", err)
	}
	if _, statErr := os.Stat(csvPath); out.Len() != 0 || statErr == nil {
		t.Errorf("a failed grid printed %q or wrote its CSV (stat: %v)", out.String(), statErr)
	}
}

// TestGridOutputGolden pins the bytes of stdout and CSV of one dumbbell
// and one backbone grid. The hashes were recorded before every grid cell
// stored its runner's own record, so they hold the renderers to the rows
// the per-tool projections printed: cebinae rows first (the table sorts
// by qdisc, then scale, then threshold, whatever the flag order), and a
// threshold column read from the cell, not from τ×100 (7/100×100 is
// 7.000000000000001 in float64). The dumbbell hash was recorded again when
// FQ-CoDel's flow queues began to run CoDel on the discipline's
// parameters, which moved the fq row alone.
func TestGridOutputGolden(t *testing.T) {
	dir := t.TempDir()
	var out, log bytes.Buffer
	d := sweeper{parallel: 2, storePath: filepath.Join(dir, "dumbbell.jsonl"), out: &out, log: &log}
	digest := func(csvPath string) string {
		data, err := os.ReadFile(csvPath)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%x", sha256.Sum256(append(out.Bytes(), data...)))
	}

	cfg := experiments.DefaultSweepConfig()
	cfg.Qdiscs = []experiments.QdiscKind{experiments.FIFO, experiments.FQ, experiments.Cebinae}
	cfg.Scales = []experiments.Scale{0.02}
	cfg.ThresholdPcts = []float64{7, 5}
	table, sheet := cfg.Sections()
	csvPath := filepath.Join(dir, "dumbbell.csv")
	if err := d.grid("grid cell", table, sheet, csvPath); err != nil {
		t.Fatal(err)
	}
	if got, want := digest(csvPath), "e19879c9467f32f0c8d619394a73cbe3424cdcb9424779005e6077a3162907b0"; got != want {
		t.Errorf("dumbbell grid sha256 %s, want %s:\n%s", got, want, out.String())
	}

	out.Reset()
	d.storePath = filepath.Join(dir, "backbone.jsonl")
	csvPath = filepath.Join(dir, "backbone.csv")
	if err := d.backbone("1000", "fifo,cebinae", "0.02", csvPath); err != nil {
		t.Fatal(err)
	}
	if got, want := digest(csvPath), "d33269bbb4a77dd8255682684d70a6fac93d95c1510a4b8f48a328d6756d9098"; got != want {
		t.Errorf("backbone grid sha256 %s, want %s:\n%s", got, want, out.String())
	}
}

// TestSweepScenarioMatchesGoRunner: the -scenario mode renders a spec
// file's section to exactly its Go runner's Report(), under the header
// naming kind, name and file.
func TestSweepScenarioMatchesGoRunner(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tiny.json")
	spec := `{"version": 1, "name": "tiny", "kind": "dumbbell", "seed": 3, "dumbbell": {
		"rate": "20M", "buffer_bytes": 150000, "duration": "300ms", "qdisc": "fifo",
		"groups": [{"cc": "newreno", "count": 2, "rtt": "10ms"}]}}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, log bytes.Buffer
	d := sweeper{parallel: 1, storePath: filepath.Join(dir, "s.jsonl"), out: &out, log: &log}
	if err := d.scenarios(path); err != nil {
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
	want := `== dumbbell scenario "tiny" (` + path + ")\n" + experiments.Run(*c.Dumbbell).Report()
	if out.String() != want {
		t.Errorf("-scenario output differs from the Go runner\n--- got\n%s--- want\n%s", out.String(), want)
	}
}
