package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/ from this tree's runs")

// TestFastForwardGolden pins what a fast-forward run reports — every
// Report() byte, the event count and the controller's arm/skip counters —
// on the three cells that arm today: four access-limited BBR flows for 60 s
// with 1 s sampling behind fifo, fq and cebinae. BBR's ProbeRTT and ProbeBW
// timing hangs on stamps taken before a skip and read after it, so any
// change to how frozen state keeps its distance to the clock across a skip
// moves these bytes (reading the ticking clock instead changes all three).
func TestFastForwardGolden(t *testing.T) {
	var b strings.Builder
	for _, q := range []QdiscKind{FIFO, FQ, Cebinae} {
		s := ffCell(q, Seconds(60))
		s.SampleInterval = Seconds(1)
		s.FastForward = true
		r := Run(s)
		if r.FF.Arms == 0 || r.FF.Skips == 0 {
			t.Fatalf("%s: fluid mode never engaged: %+v", q, r.FF)
		}
		fmt.Fprintf(&b, "== %s ff=%+v\n%s", q, r.FF, r.Report())
	}
	// Recorded at the commit before Engine.Local.
	checkGolden(t, "fastforward_golden.txt", b.String())
}

// checkGolden compares got with testdata/<name>, or rewrites the file under
// -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("runs drifted from %s:\n%s", path, firstDiff(got, string(want)))
	}
}

// firstDiff names the first line at which got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d\n got: %.200s\nwant: %.200s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("length: got %d lines, want %d", len(g), len(w))
}
