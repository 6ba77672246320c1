package experiments

import (
	"crypto/sha256"
	"fmt"
	"regexp"
	"strings"
	"testing"
	"time"

	"cebinae/internal/fleet"
)

// TestReportSectionsGolden pins every report section's rendered bytes:
// BenchSections(Scale(0.01)) through the fleet, each section's text with
// its event counts masked, as a sha256 against testdata/report_sections.txt.
// The file was recorded by the parent of the change that made every figure
// one cell per simulation, with that commit's own API, so a renderer that
// reads its runs' records differently from the per-figure loops it
// replaced shows here.
func TestReportSectionsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every report section at 1% of the paper's horizons")
	}
	start := time.Now()
	secs := BenchSections(Scale(0.01))
	sum, err := fleet.Run(SectionJobs(secs), fleet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	get := SummaryGetter(sum)
	var b strings.Builder
	for _, s := range secs {
		text, err := s.Render(get)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s %x\n", s.ID, sha256.Sum256([]byte(sectionEvents.ReplaceAllString(text, "events${1}*"))))
	}
	t.Logf("%d sections, %d jobs: %v wall", len(secs), len(sum.Results), time.Since(start).Round(time.Millisecond))
	checkGolden(t, "report_sections.txt", b.String())
}

// sectionEvents is an event count as a section prints it (events=N or
// events: N).
var sectionEvents = regexp.MustCompile(`events(=|: )\d+`)
