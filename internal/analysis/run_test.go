package analysis

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// mustParse type-checks a dependency-free source string into a *Package.
func mustParse(t *testing.T, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := NewInfo()
	conf := types.Config{}
	tpkg, err := conf.Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	return &Package{Path: "p", Fset: fset, Files: []*ast.File{f}, Types: tpkg, Info: info}
}

func policeAll(string) bool { return true }

func TestRunPropagatesAnalyzerError(t *testing.T) {
	pkg := mustParse(t, "package p\n")
	boom := errors.New("boom")
	a := &Analyzer{Name: "failing", Run: func(*Pass) error { return boom }}
	_, err := Run([]*Package{pkg}, []Policy{{Analyzer: a, Polices: policeAll}})
	if !errors.Is(err, boom) {
		t.Fatalf("Run error = %v, want %v", err, boom)
	}
}

func TestRunSkipsUnpolicedPackages(t *testing.T) {
	pkg := mustParse(t, "package p\n")
	ran := false
	a := &Analyzer{Name: "never", Run: func(*Pass) error { ran = true; return nil }}
	diags, err := Run([]*Package{pkg}, []Policy{{Analyzer: a, Polices: func(string) bool { return false }}})
	if err != nil || len(diags) != 0 || ran {
		t.Fatalf("unpoliced package was analysed: diags=%v err=%v ran=%v", diags, err, ran)
	}
}

func TestRunReportsMalformedDirectives(t *testing.T) {
	pkg := mustParse(t, "package p\n\n//lint:ignore detsource\nvar x int\n")
	a := &Analyzer{Name: "noop", Run: func(*Pass) error { return nil }}
	diags, err := Run([]*Package{pkg}, []Policy{{Analyzer: a, Polices: policeAll}})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || diags[0].Analyzer != "lintdirective" {
		t.Fatalf("want one lintdirective diagnostic, got %v", diags)
	}
	if s := diags[0].String(); !strings.Contains(s, "[lintdirective]") || !strings.Contains(s, "p.go") {
		t.Fatalf("Diagnostic.String missing position or analyzer tag: %q", s)
	}
}

func TestRunSortsDiagnostics(t *testing.T) {
	pkg := mustParse(t, "package p\n\nvar a int\nvar b int\n")
	a := &Analyzer{Name: "everyvar", Run: func(p *Pass) error {
		// Report in reverse declaration order; Run must sort by position.
		decls := p.Files[0].Decls
		for i := len(decls) - 1; i >= 0; i-- {
			p.Reportf(decls[i].Pos(), "decl")
		}
		return nil
	}}
	diags, err := Run([]*Package{pkg}, []Policy{{Analyzer: a, Polices: policeAll}})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 2 || diags[0].Pos.Line > diags[1].Pos.Line {
		t.Fatalf("diagnostics not sorted by position: %v", diags)
	}
}

func TestRunFlagsUnusedDirectives(t *testing.T) {
	pkg := mustParse(t, `package p

//lint:ignore everyvar nothing here actually fires
var a int
`)
	a := &Analyzer{Name: "everyvar", Run: func(*Pass) error { return nil }}
	diags, err := Run([]*Package{pkg}, []Policy{{Analyzer: a, Polices: policeAll}})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || diags[0].Analyzer != "unused-directive" {
		t.Fatalf("want one unused-directive diagnostic, got %v", diags)
	}
	if diags[0].Pos.Line != 3 {
		t.Fatalf("unused-directive should point at the directive line, got %v", diags[0].Pos)
	}
}

func TestRunUnusedDirectiveSkipsAnalyzersThatDidNotRun(t *testing.T) {
	// A directive for an analyzer whose policy excludes this package (or
	// that is absent from the run entirely, as in single-analyzer fixture
	// runs) must not be flagged: only its own policy can judge it.
	pkg := mustParse(t, `package p

//lint:ignore otheranalyzer justified elsewhere
var a int
`)
	a := &Analyzer{Name: "everyvar", Run: func(*Pass) error { return nil }}
	diags, err := Run([]*Package{pkg}, []Policy{{Analyzer: a, Polices: policeAll}})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("directive for non-running analyzer was flagged: %v", diags)
	}
}

func TestRunAppliesIgnoreDirectives(t *testing.T) {
	pkg := mustParse(t, `package p

//lint:ignore everyvar justified for the test
var a int
var b int
`)
	a := &Analyzer{Name: "everyvar", Run: func(p *Pass) error {
		for _, d := range p.Files[0].Decls {
			if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.VAR {
				p.Reportf(gd.Pos(), "var decl")
			}
		}
		return nil
	}}
	diags, err := Run([]*Package{pkg}, []Policy{{Analyzer: a, Polices: policeAll}})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || diags[0].Pos.Line != 5 {
		t.Fatalf("directive should suppress only the annotated line; got %v", diags)
	}
}
