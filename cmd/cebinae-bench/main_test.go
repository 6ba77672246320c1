package main

import (
	"strings"
	"testing"

	"cebinae/experiments"
)

func TestParseScale(t *testing.T) {
	good := map[string]experiments.Scale{
		"quick":  experiments.Quick,
		"medium": experiments.Medium,
		"full":   experiments.Full,
		"0.5":    0.5,
		"1":      1,
	}
	for in, want := range good {
		got, err := parseScale(in)
		if err != nil || got != want {
			t.Errorf("parseScale(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"0", "1.5", "-0.1", "huge", ""} {
		if got, err := parseScale(bad); err == nil {
			t.Errorf("parseScale(%q) = %v, want an error", bad, got)
		}
	}
}

// TestOnlyMatchingNothing: a filter that selects no section is an error
// before any job runs, not an empty report.
func TestOnlyMatchingNothing(t *testing.T) {
	err := runReport("quick", "no-such-experiment", "", 1, 0, "", "")
	if err == nil || !strings.Contains(err.Error(), `no experiments match "no-such-experiment"`) {
		t.Fatalf("runReport with an unmatched -only returned %v", err)
	}
}

func TestScenarioSectionsNoMatch(t *testing.T) {
	secs, err := scenarioSections(t.TempDir() + "/*.json")
	if err == nil || !strings.Contains(err.Error(), "matches no files") {
		t.Fatalf("scenarioSections on an empty directory = %d sections, %v", len(secs), err)
	}
}
