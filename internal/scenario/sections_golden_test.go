package scenario

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"cebinae/experiments"
	"cebinae/internal/fleet"
)

// TestScenarioSectionsGolden pins what every shipped spec file renders:
// each scenarios/*.json section, its horizon halved, run through the
// fleet, its text with event counts masked, as a sha256 against
// testdata/scenario_sections.txt. The differential tests build both their
// sides with the current topology code, so only a golden recorded by an
// earlier commit notices a changed route in the dumbbell, chain, graph or
// backbone runner.
func TestScenarioSectionsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every shipped scenario file at half its horizon")
	}
	start := time.Now()
	files, err := LoadFiles(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	secs := make([]experiments.BenchSection, len(files))
	for i, f := range files {
		shrinkHorizon(f.Compiled)
		secs[i] = f.Section("")
	}
	sum, err := fleet.Run(experiments.SectionJobs(secs), fleet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	get := experiments.SummaryGetter(sum)
	var b strings.Builder
	for _, s := range secs {
		text, err := s.Render(get)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s %x\n", s.ID, sha256.Sum256([]byte(sectionEvents.ReplaceAllString(text, "events${1}*"))))
	}
	t.Logf("%d sections, %d jobs: %v wall", len(secs), len(sum.Results), time.Since(start).Round(time.Millisecond))

	path := filepath.Join("testdata", "scenario_sections.txt")
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update at a parent commit): %v", err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("scenario sections drifted from %s:\ngot:\n%swant:\n%s", path, got, want)
	}
}

// sectionEvents is an event count as a section prints it (events=N or
// events: N).
var sectionEvents = regexp.MustCompile(`events(=|: )\d+`)

// shrinkHorizon halves a compiled spec's simulated horizon.
func shrinkHorizon(c *Compiled) {
	switch {
	case c.Dumbbell != nil:
		c.Dumbbell.Duration /= 2
	case c.Chain != nil:
		c.Chain.Duration /= 2
	case c.Graph != nil:
		c.Graph.Duration /= 2
	case c.Backbone != nil:
		c.Backbone.Duration /= 2
		c.Backbone.Trace.Duration = c.Backbone.Duration
	}
	for i := range c.Grid {
		c.Grid[i].Scenario.Duration /= 2
	}
}
