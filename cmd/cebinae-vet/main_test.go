package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestListAnalyzers checks the -list inventory: exactly the two invariant
// analyzers, detsource and simtime, are registered with the policy table.
func TestListAnalyzers(t *testing.T) {
	out := captureRun(t, []string{"-list"}, 0)
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	if got := strings.Join(names, " "); got != "detsource simtime" {
		t.Errorf("-list names %q, want \"detsource simtime\":\n%s", got, out)
	}
}

// TestRepositoryCleanViaCLI runs the multichecker over the whole module
// exactly as `make lint` does and expects a zero exit.
func TestRepositoryCleanViaCLI(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	out := captureRun(t, []string{"-dir", root, "./..."}, 0)
	if strings.TrimSpace(out) != "" {
		t.Errorf("expected no diagnostics, got:\n%s", out)
	}
}

func TestBadFlag(t *testing.T) {
	if code := run([]string{"-definitely-not-a-flag"}, devNull(t), devNull(t)); code != 2 {
		t.Fatalf("bad flag: exit %d, want 2", code)
	}
}

func captureRun(t *testing.T, args []string, wantCode int) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if code := run(args, f, devNull(t)); code != wantCode {
		t.Fatalf("run(%v) exit %d, want %d", args, code, wantCode)
	}
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func devNull(t *testing.T) *os.File {
	t.Helper()
	f, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}
