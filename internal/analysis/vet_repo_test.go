package analysis_test

import (
	"path/filepath"
	"runtime"
	"testing"

	"cebinae/internal/analysis"
	"cebinae/internal/analysis/detsource"
	"cebinae/internal/analysis/simtime"
)

// TestRepositoryIsVetClean is the live gate: the invariant analyzers
// must come back empty over the whole module (the same run `make lint`
// performs). If this fails, either fix the finding or annotate it with a
// justified //lint:ignore — see STATIC_ANALYSIS.md.
//
// It doubles as an integration test of the loader: every package of the
// module is parsed and type-checked against `go list -export` data.
func TestRepositoryIsVetClean(t *testing.T) {
	_, thisFile, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("cannot locate repository root")
	}
	root := filepath.Dir(filepath.Dir(filepath.Dir(thisFile))) // internal/analysis -> repo root

	pkgs, err := analysis.Load(root, "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loader found only %d packages; expected the whole module", len(pkgs))
	}
	diags, err := analysis.Run(pkgs, analysis.Policies(detsource.Analyzer, simtime.Analyzer))
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
