package cli

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cebinae/experiments"
	"cebinae/internal/fleet"
	"cebinae/internal/scenario"
)

// validDumbbell reports the scenario validator's verdict on a dumbbell
// with the given bottleneck rate and flow groups: the second layer a
// -bw / -flows / -rtt value must pass after its syntax.
func validDumbbell(rate scenario.Rate, groups []scenario.GroupSpec) error {
	return scenario.Validate(&scenario.Spec{Version: scenario.Version, Name: "cli", Kind: "dumbbell",
		Dumbbell: &scenario.DumbbellSpec{Rate: rate, BufferBytes: 1500, Groups: groups,
			Duration: scenario.Dur(time.Second), Qdisc: "fifo"}})
}

// TestParseBandwidth is the -bw table: cebinae-sim and cebinae-sweep read
// the flag with scenario.ParseRate, and the validator refuses a rate that
// parses but is not positive.
func TestParseBandwidth(t *testing.T) {
	one := []scenario.GroupSpec{{CC: "newreno", Count: 1, RTT: scenario.Dur(40 * time.Millisecond)}}
	for in, want := range map[string]float64{"100M": 100e6, "1G": 1e9, "2.5G": 2.5e9, "250K": 250e3, "42": 42} {
		got, err := scenario.ParseRate(in)
		if err == nil {
			err = validDumbbell(got, one)
		}
		if err != nil || float64(got) != want {
			t.Errorf("%q parsed to %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "fast", "-1M", "0", "0G"} {
		got, err := scenario.ParseRate(bad)
		if err == nil {
			err = validDumbbell(got, one)
		}
		if err == nil {
			t.Errorf("bandwidth %q accepted as %v", bad, got)
		}
	}
}

// TestParseGroups is the one table behind -flows/-rtt in cebinae-sim and
// cebinae-sweep. ParseGroups refuses only bad syntax; a zero count, a
// non-positive or sub-floor RTT and an unknown CC pass it unjudged and
// are refused by the validator, so each such value has one diagnostic.
func TestParseGroups(t *testing.T) {
	ms := func(v float64) scenario.Dur { return scenario.Dur(v * 1e6) }
	cases := []struct {
		flows, rtts string
		syntaxOK    bool                 // ParseGroups accepts it
		want        []scenario.GroupSpec // nil: must be refused
	}{
		{"newreno:16,cubic", "50ms,80ms", true, []scenario.GroupSpec{
			{CC: "newreno", Count: 16, RTT: ms(50)}, {CC: "cubic", Count: 1, RTT: ms(80)}}},
		{"newreno:2, vegas:2,bbr:1", "40ms", true, []scenario.GroupSpec{
			{CC: "newreno", Count: 2, RTT: ms(40)}, {CC: "vegas", Count: 2, RTT: ms(40)}, {CC: "bbr", Count: 1, RTT: ms(40)}}},
		{"newreno:0", "40ms", true, nil},
		{"newreno:x", "40ms", false, nil},
		{"newreno:2", "soon", false, nil},
		{"newreno:2", "", false, nil},
		{"newreno:2", "0s", true, nil},
		{"newreno:2", "-1ms", true, nil},
		{"newreno:2,cubic:1", "40ms,-40ms", true, nil},
		{"newreno:2", "100us", true, nil},
		{"newreno:2", "199999ns", true, nil},
		{"newreno:2", "200us", true, []scenario.GroupSpec{{CC: "newreno", Count: 2, RTT: scenario.Dur(200 * time.Microsecond)}}},
		{"foo:2", "40ms", true, nil},
		{"newreno:1", "10ms,20ms,30ms", false, nil},
	}
	for _, tc := range cases {
		got, err := ParseGroups(tc.flows, tc.rtts)
		if (err == nil) != tc.syntaxOK {
			t.Errorf("flows %q rtt %q: syntax error %v, want syntax accepted %v", tc.flows, tc.rtts, err, tc.syntaxOK)
			continue
		}
		if err == nil {
			err = validDumbbell(100e6, got)
		}
		if tc.want == nil {
			if err == nil {
				t.Errorf("flows %q rtt %q accepted as %+v", tc.flows, tc.rtts, got)
			}
			continue
		}
		if err != nil || len(got) != len(tc.want) {
			t.Errorf("flows %q rtt %q: %+v, %v; want %+v", tc.flows, tc.rtts, got, err, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("flows %q rtt %q: group %d is %+v, want %+v", tc.flows, tc.rtts, i, got[i], tc.want[i])
			}
		}
	}
}

func TestStartProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	stop, err := StartProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Errorf("%s: %v, want a non-empty profile", filepath.Base(path), err)
		}
	}
	// No paths, nothing to do; an unwritable path is reported at start.
	if stop, err = StartProfiles("", ""); err != nil || stop() != nil {
		t.Fatalf("StartProfiles with no paths: %v", err)
	}
	if _, err := StartProfiles(filepath.Join(dir, "missing", "cpu.pprof"), ""); err == nil {
		t.Fatal("a CPU profile path in a missing directory was accepted")
	}
}

// TestRun: the runner runs every section's jobs, prints one timing line
// naming the worker count, and hands back a Getter and a summary that
// record a failed job rather than returning it.
func TestRun(t *testing.T) {
	one := func(id string, run func() int) experiments.BenchSection {
		return experiments.NewSection("", id, "", []experiments.Cell[int]{{Run: run}},
			experiments.Only(func(v int) string { return strings.Repeat("x", v) }))
	}
	secs := []experiments.BenchSection{one("a", func() int { return 3 }), one("b", func() int { panic("blew up") })}
	var log bytes.Buffer
	get, sum, err := Run(secs, fleet.Options{Parallelism: 2}, &log)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Results) != 2 || sum.Failed != 1 {
		t.Errorf("summary %+v, want two results, one failed", sum)
	}
	if text, err := secs[0].Render(get); text != "xxx" || err != nil {
		t.Errorf("section a rendered %q, %v", text, err)
	}
	if _, err := secs[1].Render(get); err == nil || !strings.Contains(err.Error(), "blew up") {
		t.Errorf("section b: err = %v, want the panic", err)
	}
	if lines := strings.Count(log.String(), "\n"); lines != 1 || !strings.Contains(log.String(), "vs sequential (p=2)") {
		t.Errorf("timing output %q, want one line naming p=2", log.String())
	}
}

// TestRunTimingLine: with a progress writer the fleet's closing line
// carries the run's job work and speedup, and the runner's line only the
// elapsed time and worker count; a run whose every job came from the store
// reports no speedup on either line.
func TestRunTimingLine(t *testing.T) {
	secs := []experiments.BenchSection{experiments.NewSection("", "a", "", []experiments.Cell[int]{{Run: func() int { return 3 }}},
		experiments.Only(func(int) string { return "" }))}
	path := filepath.Join(t.TempDir(), "store.jsonl")
	for _, tc := range []struct {
		name, fleetWant string
		speedups        int
	}{{"fresh", "(0 cached, 0 failed): ", 1}, {"from the store", "(1 cached, 0 failed): ", 0}} {
		store, err := fleet.OpenStore(path)
		if err != nil {
			t.Fatal(err)
		}
		var log bytes.Buffer
		if _, _, err := Run(secs, fleet.Options{Parallelism: 2, Store: store, Progress: &log}, &log); err != nil {
			t.Fatal(err)
		}
		store.Close()
		lines := strings.Split(strings.TrimSuffix(log.String(), "\n"), "\n")
		last := lines[len(lines)-1]
		switch {
		case len(lines) < 2 || !strings.Contains(lines[len(lines)-2], tc.fleetWant):
			t.Errorf("%s: fleet closing line missing %q:\n%s", tc.name, tc.fleetWant, log.String())
		case strings.Count(log.String(), "vs sequential") != tc.speedups:
			t.Errorf("%s: %d speedups printed, want %d:\n%s", tc.name, strings.Count(log.String(), "vs sequential"), tc.speedups, log.String())
		case !strings.HasSuffix(last, " elapsed (p=2)"):
			t.Errorf("%s: runner's line %q, want the elapsed time and p=2 alone", tc.name, last)
		case tc.speedups == 0 && !strings.Contains(log.String(), "no job executed"):
			t.Errorf("%s: no line says that no job executed:\n%s", tc.name, log.String())
		}
	}
}

// TestRunCell: one cell comes back as its record decoded from the run,
// with its job's wall time; a cell that panics is an error.
func TestRunCell(t *testing.T) {
	type rec struct{ A, B float64 }
	got, wall, err := RunCell(func() rec { return rec{0.1, 1e300} }, &bytes.Buffer{})
	if err != nil || got != (rec{0.1, 1e300}) || wall < 0 {
		t.Errorf("RunCell = %+v, %v, %v", got, wall, err)
	}
	if _, _, err := RunCell(func() rec { panic("blew up") }, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "blew up") {
		t.Errorf("a panicking cell: err = %v", err)
	}
}
