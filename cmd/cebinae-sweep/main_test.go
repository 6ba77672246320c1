package main

import (
	"testing"

	"cebinae/experiments"
	"cebinae/internal/cli"
)

func TestParseQdiscs(t *testing.T) {
	got, err := parseQdiscs("fifo, fq,cebinae")
	if err != nil {
		t.Fatal(err)
	}
	want := []experiments.QdiscKind{experiments.FIFO, experiments.FQ, experiments.Cebinae}
	if len(got) != len(want) {
		t.Fatalf("parsed %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("parsed %v, want %v", got, want)
		}
	}
	if _, err := parseQdiscs("fifo,red"); err == nil {
		t.Fatal("unknown qdisc accepted")
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
	for _, bad := range []string{"x", "-1", "500", "100.5"} {
		if _, err := parseFloats(bad); err == nil {
			t.Fatalf("threshold %q accepted", bad)
		}
	}
}

func TestParseBW(t *testing.T) {
	cases := map[string]float64{"100M": 100e6, "1G": 1e9, "250K": 250e3, "42": 42, "2.5G": 2.5e9}
	for in, want := range cases {
		got, err := cli.ParseBandwidth(in)
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		if got != want {
			t.Errorf("%q parsed to %v, want %v", in, got, want)
		}
	}
	for _, bad := range []string{"", "fast", "-1M", "0"} {
		if _, err := cli.ParseBandwidth(bad); err == nil {
			t.Errorf("bandwidth %q accepted", bad)
		}
	}
}

func TestParseGroups(t *testing.T) {
	got, err := cli.ParseGroups("newreno:16,cubic", "50ms,80ms")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("parsed %v", got)
	}
	// A bare cca name means one flow; a short RTT list applies its first
	// value to the remaining groups... here both are present.
	if got[0].CC != "newreno" || got[0].Count != 16 || got[0].RTT != experiments.SimTime(50e6) {
		t.Errorf("group 0: %+v", got[0])
	}
	if got[1].CC != "cubic" || got[1].Count != 1 || got[1].RTT != experiments.SimTime(80e6) {
		t.Errorf("group 1: %+v", got[1])
	}

	// One RTT fans out across all groups.
	got, err = cli.ParseGroups("newreno:2,vegas:2,bbr:1", "40ms")
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range got {
		if g.RTT != experiments.SimTime(40e6) {
			t.Errorf("group %d RTT %v, want 40ms fan-out", i, g.RTT)
		}
	}

	for _, bad := range [][2]string{{"newreno:0", "40ms"}, {"newreno:x", "40ms"}, {"newreno:2", "soon"}, {"newreno:2", "-1ms"}} {
		if _, err := cli.ParseGroups(bad[0], bad[1]); err == nil {
			t.Errorf("groups %q rtt %q accepted", bad[0], bad[1])
		}
	}
}

func TestParseTiers(t *testing.T) {
	got, err := parseTiers("20000, 100000,1000000")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 20000 || got[1] != 100000 || got[2] != 1000000 {
		t.Fatalf("parsed %v", got)
	}
	for _, bad := range []string{"", "x", "0", "-5", "1e5"} {
		if _, err := parseTiers(bad); err == nil {
			t.Fatalf("tier list %q accepted", bad)
		}
	}
}
