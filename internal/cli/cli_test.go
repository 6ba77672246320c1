package cli

import (
	"os"
	"path/filepath"
	"testing"

	"cebinae/experiments"
)

func TestParseBandwidth(t *testing.T) {
	for in, want := range map[string]float64{"100M": 100e6, "1G": 1e9, "2.5G": 2.5e9, "250K": 250e3, "42": 42} {
		if got, err := ParseBandwidth(in); err != nil || got != want {
			t.Errorf("%q parsed to %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "fast", "-1M", "0", "0G"} {
		if _, err := ParseBandwidth(bad); err == nil {
			t.Errorf("bandwidth %q accepted", bad)
		}
	}
}

// TestParseGroups is the one table behind -flows/-rtt in cebinae-sim and
// cebinae-sweep. The two tools used to carry a copy each, and the copies
// disagreed on a non-positive RTT, which cebinae-sim let through.
func TestParseGroups(t *testing.T) {
	ms := func(v float64) experiments.SimTime { return experiments.SimTime(v * 1e6) }
	cases := []struct {
		flows, rtts string
		want        []experiments.FlowGroup // nil: must be rejected
	}{
		{"newreno:16,cubic", "50ms,80ms", []experiments.FlowGroup{
			{CC: "newreno", Count: 16, RTT: ms(50)}, {CC: "cubic", Count: 1, RTT: ms(80)}}},
		{"newreno:2, vegas:2,bbr:1", "40ms", []experiments.FlowGroup{
			{CC: "newreno", Count: 2, RTT: ms(40)}, {CC: "vegas", Count: 2, RTT: ms(40)}, {CC: "bbr", Count: 1, RTT: ms(40)}}},
		{"newreno:0", "40ms", nil},
		{"newreno:x", "40ms", nil},
		{"newreno:2", "soon", nil},
		{"newreno:2", "", nil},
		{"newreno:2", "0s", nil},
		{"newreno:2", "-1ms", nil},
		{"newreno:2,cubic:1", "40ms,-40ms", nil},
		{"newreno:2", "100us", nil},
		{"newreno:2", "199999ns", nil},
		{"newreno:2", "200us", []experiments.FlowGroup{{CC: "newreno", Count: 2, RTT: experiments.MinRTT}}},
		{"foo:2", "40ms", nil},
		{"newreno:1", "10ms,20ms,30ms", nil},
	}
	for _, tc := range cases {
		got, err := ParseGroups(tc.flows, tc.rtts)
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
