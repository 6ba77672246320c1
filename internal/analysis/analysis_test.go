package analysis

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func parseSrc(t *testing.T, src string) (*token.FileSet, []*ignoreDirective, []string) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var malformed []string
	dirs := parseDirectives(fset, f, func(pos token.Pos, msg string) {
		malformed = append(malformed, msg)
	})
	return fset, dirs, malformed
}

func TestDirectiveParsing(t *testing.T) {
	src := `package p

//lint:ignore detsource host-side only
var a int

//lint:ignore detsource,othercheck shared justification
var b int

//lint:file-ignore simtime generated file, magnitudes proven elsewhere
var c int
`
	_, dirs, malformed := parseSrc(t, src)
	if len(malformed) != 0 {
		t.Fatalf("unexpected malformed directives: %v", malformed)
	}
	if len(dirs) != 3 {
		t.Fatalf("got %d directives, want 3", len(dirs))
	}
	if !dirs[0].covers("detsource") || dirs[0].covers("othercheck") {
		t.Errorf("directive 0 coverage wrong: %+v", dirs[0])
	}
	if !dirs[1].covers("detsource") || !dirs[1].covers("othercheck") {
		t.Errorf("comma-separated directive should cover both analyzers: %+v", dirs[1])
	}
	if !dirs[2].file || !dirs[2].covers("simtime") {
		t.Errorf("file-ignore not parsed as file-wide: %+v", dirs[2])
	}
}

func TestMalformedDirective(t *testing.T) {
	// A directive without a reason must be rejected: every exemption is
	// required to carry its justification.
	src := `package p

//lint:ignore detsource
var a int
`
	_, dirs, malformed := parseSrc(t, src)
	if len(dirs) != 0 {
		t.Fatalf("malformed directive was accepted: %+v", dirs[0])
	}
	if len(malformed) != 1 || !strings.Contains(malformed[0], "reason is mandatory") {
		t.Fatalf("want one 'reason is mandatory' report, got %v", malformed)
	}
}

func TestSuppression(t *testing.T) {
	src := `package p

//lint:ignore detsource justified
var a int

//lint:file-ignore othercheck whole file justified
var b int
`
	fset, dirs, _ := parseSrc(t, src)
	_ = fset
	diag := func(analyzer string, line int) Diagnostic {
		return Diagnostic{Pos: token.Position{Filename: "x.go", Line: line}, Analyzer: analyzer, Message: "m"}
	}
	cases := []struct {
		d    Diagnostic
		want bool
	}{
		{diag("detsource", 4), true},   // line after the directive
		{diag("detsource", 3), true},   // same line as the directive
		{diag("detsource", 5), false},  // out of range
		{diag("simtime", 4), false},    // different analyzer
		{diag("othercheck", 99), true}, // file-ignore covers everything
	}
	for i, c := range cases {
		if got := suppressed(c.d, dirs); got != c.want {
			t.Errorf("case %d (%s line %d): suppressed=%v, want %v", i, c.d.Analyzer, c.d.Pos.Line, got, c.want)
		}
	}
}
