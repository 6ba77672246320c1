package main

import (
	"strings"
	"testing"
)

// TestParseScale: the -scale flag admits the named scales and fractions in
// (0, 1] and refuses anything else before a section is enumerated. A good
// scale gets as far as the -only filter, which here matches nothing.
func TestParseScale(t *testing.T) {
	for _, in := range []string{"quick", "medium", "full", "0.5", "1"} {
		err := runReport(in, "no-such-experiment", "", 1, 0, "", "")
		if err == nil || !strings.Contains(err.Error(), "no experiments match") {
			t.Errorf("-scale %q: runReport returned %v, want the unmatched -only error", in, err)
		}
	}
	for _, bad := range []string{"0", "1.5", "-0.1", "huge", ""} {
		err := runReport(bad, "no-such-experiment", "", 1, 0, "", "")
		if err == nil || strings.Contains(err.Error(), "no experiments match") {
			t.Errorf("-scale %q: runReport returned %v, want a scale error", bad, err)
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

// TestScenarioSectionsNoMatch: a -scenario pattern that matches no file is
// an error before any job runs.
func TestScenarioSectionsNoMatch(t *testing.T) {
	err := runReport("quick", "", "", 1, 0, "", t.TempDir()+"/*.json")
	if err == nil || !strings.Contains(err.Error(), "matches no files") {
		t.Fatalf("-scenario on an empty directory: runReport returned %v", err)
	}
}
