package experiments_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cebinae/experiments"
	"cebinae/internal/fleet"
	"cebinae/internal/scenario"
)

// TestJobIDsGolden pins every checkpoint ID the CLIs enumerate: the bench
// report at two scales, each shipped scenario file's section, the default
// dumbbell sweep and a two-tier backbone sweep. A -resume store is keyed
// by these IDs, so a renamed one would silently re-run (or orphan) every
// stored result; testdata/job_ids.txt was recorded before the run paths
// were merged and must not move. Regenerate it only on purpose:
// go test ./experiments -run TestJobIDsGolden -update.
func TestJobIDsGolden(t *testing.T) {
	var b strings.Builder
	list := func(title string, jobs []fleet.Job) {
		fmt.Fprintf(&b, "# %s\n", title)
		for _, j := range jobs {
			fmt.Fprintln(&b, j.ID)
		}
	}
	list("BenchSections(Quick)", experiments.SectionJobs(experiments.BenchSections(experiments.Quick)))
	list("BenchSections(Full)", experiments.SectionJobs(experiments.BenchSections(experiments.Full)))
	paths, err := filepath.Glob("../scenarios/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no scenario files: %v", err)
	}
	for _, p := range paths {
		spec, err := scenario.Load(p)
		if err != nil {
			t.Fatal(err)
		}
		c, err := scenario.Compile(spec)
		if err != nil {
			t.Fatal(err)
		}
		list("scenarios/"+filepath.Base(p)+` Section("")`, c.Section("").Jobs)
	}
	sweep, _ := experiments.DefaultSweepConfig().Sections()
	list("DefaultSweepConfig().Sections()", sweep.Jobs)
	backbone, _ := experiments.BackboneSweepSections([]int{1000, 20000}, []experiments.QdiscKind{experiments.FIFO, experiments.Cebinae}, experiments.Quick)
	list("BackboneSweepSections([1000 20000], [fifo cebinae], Quick)", backbone.Jobs)

	const golden = "testdata/job_ids.txt"
	if f := flag.Lookup("update"); f != nil && f.Value.String() == "true" {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("%s line %d: got %q, want %q (a moved job ID breaks -resume of existing stores)", golden, i+1, g, w)
		}
	}
}
